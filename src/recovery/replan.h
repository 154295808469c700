// Multi-failure re-planning: the one path from censuses to a validated plan,
// shared by the fault-injection runtime's crash escalation
// (inject/runtime.h) and the rebuild coordinator's batches
// (rebuild/coordinator.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/plan_template.h"
#include "recovery/validate.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car::recovery {

/// Recovery planner family.
enum class Strategy : std::uint8_t {
  kCar,  // rack selection + partial decoding + balancing (recovery/multi)
  kRr,   // ship k survivors to the replacement and decode there
};

[[nodiscard]] const char* to_string(Strategy strategy) noexcept;

/// The strategy `text` names: "car" or "rr", exactly.  Throws
/// std::invalid_argument naming `text` for anything else.  Scenario specs
/// and carctl's --strategy both parse through here, so a run never holds
/// an unchecked strategy name.
[[nodiscard]] Strategy parse_strategy(std::string_view text);

struct MultiReplan {
  RecoveryPlan plan;
  ValidationReport validation;  // always ok() when returned
};

/// Plan the stripes of `censuses` onto `replacement` — CAR: balance_multi
/// and partial decoding; RR: plan_multi_rr, drawing survivors from
/// `rr_rng` — building from `cache`'s templates, then gate the plan with
/// validate_plan; a CAR plan must also ship exactly the cross-rack chunks
/// its rack sets claim.
/// Throws util::StateError when the plan fails validation.
MultiReplan plan_multi_failure(const cluster::Placement& placement,
                               const rs::Code& code,
                               const std::vector<MultiStripeCensus>& censuses,
                               Strategy strategy, std::uint64_t chunk_size,
                               cluster::NodeId replacement, util::Rng& rr_rng,
                               PlanTemplateCache& cache);

}  // namespace car::recovery
