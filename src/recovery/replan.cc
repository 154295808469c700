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

namespace {

/// The shared solve: CAR balances and records the rack sets' cross-rack
/// claim in `options`; RR draws survivors from `rr_rng`.  Hands the
/// solutions to `car` or `rr` and returns what it lowers.
template <typename Car, typename Rr>
auto solve(const cluster::Placement& placement,
           const std::vector<MultiStripeCensus>& censuses, Strategy strategy,
           cluster::NodeId replacement, util::Rng& rr_rng,
           ValidateOptions& options, Car&& car, Rr&& rr) {
  options.placement = &placement;
  if (strategy == Strategy::kCar) {
    const MultiBalanceResult balanced = balance_multi(placement, censuses);
    const std::span<const MultiStripeSolution> solutions(balanced.solutions);
    options.expected_cross_rack_chunks = claimed_cross_rack_chunks(
        solutions, placement.topology().rack_of(replacement));
    return car(solutions);
  }
  const std::vector<MultiRrSolution> solutions =
      plan_multi_rr(placement, censuses, rr_rng);
  return rr(std::span<const MultiRrSolution>(solutions));
}

}  // namespace

MultiReplan plan_multi_failure(const cluster::Placement& placement,
                               const rs::Code& code,
                               const std::vector<MultiStripeCensus>& censuses,
                               Strategy strategy, std::uint64_t chunk_size,
                               cluster::NodeId replacement, util::Rng& rr_rng,
                               PlanTemplateCache& cache) {
  MultiReplan out;
  ValidateOptions options;
  out.plan = solve(
      placement, censuses, strategy, replacement, rr_rng, options,
      [&](std::span<const MultiStripeSolution> solutions) {
        return build_multi_car_plan(placement, code, solutions, chunk_size,
                                    replacement, cache);
      },
      [&](std::span<const MultiRrSolution> solutions) {
        return build_multi_rr_plan(placement, code, solutions, chunk_size,
                                   replacement, cache);
      });
  out.validation = validate_plan(out.plan, placement.topology(), options);
  CAR_CHECK_STATE(out.validation.ok(),
                  "multi-failure re-plan failed validation:\n" +
                      out.validation.to_string());
  return out;
}

PlanArena plan_multi_failure_arena(
    const cluster::Placement& placement, const rs::Code& code,
    const std::vector<MultiStripeCensus>& censuses, Strategy strategy,
    std::uint64_t chunk_size, std::uint64_t slice_size,
    cluster::NodeId replacement, util::Rng& rr_rng,
    PlanTemplateCache& cache) {
  ValidateOptions options;
  PlanArena arena = solve(
      placement, censuses, strategy, replacement, rr_rng, options,
      [&](std::span<const MultiStripeSolution> solutions) {
        return build_multi_car_arena(placement, code, solutions, chunk_size,
                                     slice_size, replacement, cache);
      },
      [&](std::span<const MultiRrSolution> solutions) {
        return build_multi_rr_arena(placement, code, solutions, chunk_size,
                                    slice_size, replacement, cache);
      });
  const ValidationReport report =
      validate_arena(arena, placement.topology(), options);
  CAR_CHECK_STATE(report.ok(), "multi-failure re-plan failed validation:\n" +
                                   report.to_string());
  return arena;
}

}  // namespace car::recovery
