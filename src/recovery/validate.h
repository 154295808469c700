// Static validation of recovery plans and of their arena lowerings.
//
// recovery::validate_arena checks a PlanArena without executing it, so
// every arena an executor is handed can be machine-checked first (the
// rebuild coordinator's batches, carctl validate --slice-kib):
//
//   * structure   — forward dependencies (every dep an earlier row),
//                   endpoints inside the topology, compute inputs that
//                   exist and name compute steps, unique (stripe, chunk)
//                   outputs of compute steps of their own stripe;
//   * sizing      — the slice grid tiles chunk_size, so every transfer row
//                   moves exactly chunk_size bytes and every compute row
//                   touches chunk_size * |inputs| bytes;
//   * data flow   — with a Placement, every transfer's payload and every
//                   compute's input provably exists on the right node by the
//                   time the step may run (its producer is a dependency
//                   ancestor), and every declared output lands on the
//                   replacement;
//   * aggregation — per stripe, at most one aggregator node per rack (the
//                   paper's partial-decoding structure: each contributing
//                   rack funnels through a single aggregator);
//   * traffic     — cross-rack flags match the endpoints, and the total
//                   cross-rack bytes match the planner's claimed rack counts
//                   (Theorem 1's Σ_j d_j chunks).
//
// The data-flow pass works on each stripe's rows alone: ancestor sets over
// that stripe's own edges, and producers looked up among its own rows.  A
// dependency or buffer reference that leaves its stripe therefore never
// satisfies a check — it can only make the verdict stricter — and the cost
// is linear in the rows for any bounded stripe size.
//
// recovery::validate_plan checks what only a RecoveryPlan can get wrong
// (dense ids, dependency ids, per-step byte counts) and hands everything
// else to validate_arena on PlanArena::build(plan): there is one
// data-flow checker.
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
#include "recovery/plan_arena.h"

namespace car::recovery {

/// Result of a validation: empty errors == valid.  `notes` records checks
/// that were skipped (e.g. data-flow analysis without a placement).
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
  /// When set, the cross-rack transfer total must equal exactly this many
  /// chunk-sized units (e.g. Theorem 1's Σ_j d_j from the planner's rack
  /// sets; see claimed_cross_rack_chunks).
  std::optional<std::uint64_t> expected_cross_rack_chunks;
  /// A stripe with more rows than this skips the ancestor analysis, which
  /// is quadratic in one stripe's rows (noted in the report); every other
  /// check still runs.
  std::size_t max_flow_analysis_steps = 50'000;
};

/// Statically check `arena` against `topology`.  Never throws on malformed
/// arenas — every defect is reported as an error string.
ValidationReport validate_arena(const PlanArena& arena,
                                const cluster::Topology& topology,
                                const ValidateOptions& options = {});

/// Statically check `plan` against `topology`: its ids, dependency ids and
/// byte counts, then validate_arena on its chunk-granular lowering.  Never
/// throws on malformed plans.
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
