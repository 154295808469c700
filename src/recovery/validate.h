// Static validation of recovery plans.
//
// recovery::validate_plan checks a RecoveryPlan without executing it, so
// every emitted plan can be machine-checked (carctl validate) before it is
// handed to the metrics counter, the flow simulator, or the emulator:
//
//   * structure   — dense step ids, in-range dependency ids, no self-deps,
//                   acyclic dependency DAG;
//   * sizing      — every transfer moves exactly chunk_size bytes and every
//                   compute touches chunk_size * |inputs| bytes;
//   * data flow   — with a Placement, every transfer's payload and every
//                   compute's input provably exists on the right node by the
//                   time the step may run (its producer is a dependency
//                   ancestor), and every declared output lands on the
//                   replacement;
//   * aggregation — per stripe, at most one aggregator node per rack (the
//                   paper's partial-decoding structure: each contributing
//                   rack funnels through a single aggregator);
//   * traffic     — the plan's total cross-rack bytes match the planner's
//                   claimed rack counts (Theorem 1's Σ_j d_j chunks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "recovery/multi.h"
#include "recovery/plan.h"

namespace car::recovery {

/// Result of validate_plan: empty errors == valid plan.  `notes` records
/// checks that were skipped (e.g. data-flow analysis without a placement).
struct ValidationReport {
  std::vector<std::string> errors;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  /// Newline-joined errors (then notes), for CLI/diagnostic output.
  [[nodiscard]] std::string to_string() const;
};

struct ValidateOptions {
  /// Enables data-flow validation (chunk homes, buffer availability).
  const cluster::Placement* placement = nullptr;
  /// When set, the plan's cross-rack transfer total must equal exactly
  /// this many chunk-sized units (e.g. Theorem 1's Σ_j d_j from the
  /// planner's rack sets; see expected_cross_rack_chunks).
  std::optional<std::uint64_t> expected_cross_rack_chunks;
  /// Plans above this step count skip the quadratic ancestor analysis
  /// (noted in the report) but keep all structural checks.
  std::size_t max_flow_analysis_steps = 50'000;
};

/// Statically check `plan` against `topology`.  Never throws on malformed
/// plans — every defect is reported as an error string.
ValidationReport validate_plan(const RecoveryPlan& plan,
                               const cluster::Topology& topology,
                               const ValidateOptions& options = {});

/// The planner's claimed cross-rack chunk count for CAR solutions: each
/// rack of a stripe's rack set other than the replacement's ships one
/// partially decoded chunk per lost chunk of the stripe (Theorem 1's
/// Σ_j d_j under a single failure).
std::uint64_t claimed_cross_rack_chunks(
    std::span<const MultiStripeSolution> solutions,
    cluster::RackId replacement_rack);

}  // namespace car::recovery
