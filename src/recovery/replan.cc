#include "recovery/replan.h"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace car::recovery {

const char* to_string(Strategy strategy) noexcept {
  return strategy == Strategy::kCar ? "car" : "rr";
}

Strategy parse_strategy(std::string_view text) {
  if (text == "car") return Strategy::kCar;
  if (text == "rr") return Strategy::kRr;
  throw std::invalid_argument("unknown strategy \"" + std::string(text) +
                              "\" (expected car or rr)");
}

PlanArena plan_multi_failure_arena(
    const cluster::Placement& placement, const rs::Code& code,
    const std::vector<MultiStripeCensus>& censuses, Strategy strategy,
    std::uint64_t chunk_size, std::uint64_t slice_size,
    cluster::NodeId replacement, util::Rng& rr_rng,
    PlanTemplateCache& cache) {
  ValidateOptions options;
  options.placement = &placement;
  PlanArena arena;
  if (strategy == Strategy::kCar) {
    const MultiBalanceResult balanced = balance_multi(placement, censuses);
    const std::span<const MultiStripeSolution> solutions(balanced.solutions);
    options.expected_cross_rack_chunks = claimed_cross_rack_chunks(
        solutions, placement.topology().rack_of(replacement));
    arena = build_multi_car_arena(placement, code, solutions, chunk_size,
                                  slice_size, replacement, cache);
  } else {
    const std::vector<MultiRrSolution> solutions =
        plan_multi_rr(placement, censuses, rr_rng);
    arena = build_multi_rr_arena(placement, code, solutions, chunk_size,
                                 slice_size, replacement, cache);
  }
  const ValidationReport report =
      validate_arena(arena, placement.topology(), options);
  CAR_CHECK_STATE(report.ok(), "multi-failure re-plan failed validation:\n" +
                                   report.to_string());
  return arena;
}

}  // namespace car::recovery
