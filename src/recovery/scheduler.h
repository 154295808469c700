// Windowed scheduling of multi-stripe recovery plans.
//
// A raw RecoveryPlan lets every stripe recover concurrently, which maximises
// network utilisation but also buffers up to `stripes x k` chunks in flight
// at the replacement and aggregators.  Real repair pipelines bound that
// memory by capping the number of stripes being recovered at once.  This
// module rewrites a plan so that at most `window` stripes are in flight:
// stripes are dealt round-robin into `window` lanes, and within a lane each
// stripe's steps wait for the previous stripe's final step.
//
// window = 1  -> fully serial recovery (minimum memory, longest makespan);
// window >= #stripes -> the original fully-parallel plan.
#pragma once

#include <cstddef>
#include <span>

#include "recovery/plan.h"

namespace car::recovery {

/// Rewrite `plan` to bound in-flight stripes.  The step set is unchanged —
/// only dependencies are added — so traffic accounting is identical.
/// Throws std::invalid_argument when window == 0.
RecoveryPlan schedule_windowed(const RecoveryPlan& plan, std::size_t window);

/// Upper bound on stripes simultaneously in flight under this plan's
/// dependencies (computed from the lane structure: number of distinct
/// stripes with no inter-stripe ordering).  For plans produced by
/// schedule_windowed this equals min(window, #stripes); for raw builder
/// plans it equals the stripe count.
std::size_t max_inflight_stripes(const RecoveryPlan& plan);

/// Readiness surface consumed by DAG executors (emul::Cluster::execute's
/// payload and timing passes): per-step count of unfinished
/// prerequisites.  Steps with indegree 0 are immediately runnable.
/// Throws std::invalid_argument when a step references an unknown
/// dependency id.  The span overloads serve sliced step sequences
/// (recovery/slice.h) with the same checks.
std::vector<std::size_t> step_indegrees(std::span<const PlanStep> steps);
std::vector<std::size_t> step_indegrees(const RecoveryPlan& plan);

/// Reverse adjacency of the dependency DAG: dependents[i] lists the steps
/// unblocked when step i completes.  Throws std::invalid_argument when a
/// step references an unknown dependency id.
std::vector<std::vector<std::size_t>> step_dependents(
    std::span<const PlanStep> steps);
std::vector<std::vector<std::size_t>> step_dependents(const RecoveryPlan& plan);

}  // namespace car::recovery
