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

MultiReplan plan_multi_failure(const cluster::Placement& placement,
                               const rs::Code& code,
                               const std::vector<MultiStripeCensus>& censuses,
                               Strategy strategy, std::uint64_t chunk_size,
                               cluster::NodeId replacement, util::Rng& rr_rng,
                               PlanTemplateCache& cache) {
  MultiReplan out;
  ValidateOptions options;
  options.placement = &placement;
  if (strategy == Strategy::kCar) {
    const MultiBalanceResult balanced = balance_multi(placement, censuses);
    const std::span<const MultiStripeSolution> solutions(balanced.solutions);
    out.plan = build_multi_car_plan(placement, code, solutions, chunk_size,
                                    replacement, cache);
    options.expected_cross_rack_chunks = claimed_cross_rack_chunks(
        solutions, placement.topology().rack_of(replacement));
  } else {
    const std::vector<MultiRrSolution> solutions =
        plan_multi_rr(placement, censuses, rr_rng);
    out.plan = build_multi_rr_plan(
        placement, code, std::span<const MultiRrSolution>(solutions),
        chunk_size, replacement, cache);
  }
  out.validation = validate_plan(out.plan, placement.topology(), options);
  CAR_CHECK_STATE(out.validation.ok(),
                  "multi-failure re-plan failed validation:\n" +
                      out.validation.to_string());
  return out;
}

}  // namespace car::recovery
