// Multi-failure re-planning: the one path from censuses to a validated
// lowering — census -> balance_multi | plan_multi_rr -> template lowering ->
// static validation.  Two forms share the solve step:
//
//   * plan_multi_failure_arena lowers straight into a PlanArena from the
//     template cache and gates it with validate_arena.  It is the rebuild
//     coordinator's per-batch re-plan (rebuild/coordinator.h): no
//     RecoveryPlan is built, validated or lowered per batch.
//   * plan_multi_failure builds a RecoveryPlan and gates it with
//     validate_plan.  Only the fault-injection runtime's crash escalation
//     (inject/runtime.h) and inject::run_scenario still use it, because
//     their results carry the plan and its validation report.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
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

/// plan_multi_failure's arena form: the same solve, lowered by
/// build_multi_*_arena onto a grid of `slice_size` bytes (clamped to
/// chunk_size) and gated with validate_arena.  The arena equals
/// PlanArena::build(plan_multi_failure(...).plan, slice_size) for the same
/// inputs and RNG state.  Throws util::StateError with the report when the
/// arena fails validation.
PlanArena plan_multi_failure_arena(
    const cluster::Placement& placement, const rs::Code& code,
    const std::vector<MultiStripeCensus>& censuses, Strategy strategy,
    std::uint64_t chunk_size, std::uint64_t slice_size,
    cluster::NodeId replacement, util::Rng& rr_rng, PlanTemplateCache& cache);

}  // namespace car::recovery
