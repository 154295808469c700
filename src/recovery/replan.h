// Multi-failure re-planning: the one path from censuses to a validated
// lowering — census -> balance_multi | plan_multi_rr -> template lowering
// into a PlanArena -> validate_arena.  No RecoveryPlan is built, validated
// or lowered: plan_multi_failure_arena is the rebuild coordinator's
// per-batch re-plan (rebuild/coordinator.h), the fault-injection runtime's
// crash escalation (inject/runtime.h) and inject::run_scenario's initial
// plan.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
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

/// Plan the stripes of `censuses` onto `replacement` — CAR: balance_multi
/// and partial decoding; RR: plan_multi_rr, drawing survivors from
/// `rr_rng` — lowering from `cache`'s templates by build_multi_*_arena onto
/// a grid of `slice_size` bytes (clamped to chunk_size), then gate the
/// arena with validate_arena; a CAR arena must also ship exactly the
/// cross-rack chunks its rack sets claim.  Throws util::StateError with the
/// report when the arena fails validation.
PlanArena plan_multi_failure_arena(
    const cluster::Placement& placement, const rs::Code& code,
    const std::vector<MultiStripeCensus>& censuses, Strategy strategy,
    std::uint64_t chunk_size, std::uint64_t slice_size,
    cluster::NodeId replacement, util::Rng& rr_rng, PlanTemplateCache& cache);

}  // namespace car::recovery
