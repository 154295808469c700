// The exhaustive optimum of Algorithm 2's objective (ablation).
//
// balance_multi (recovery/multi.h) is the paper's greedy Algorithm 2.  This
// module searches every combination of valid minimal per-stripe rack sets
// by branch and bound, to measure how close the greedy pass gets to the
// true optimum.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/placement.h"
#include "recovery/multi.h"
#include "recovery/solutions.h"

namespace car::recovery {

struct ExhaustiveResult {
  double lambda = 0.0;
  std::size_t max_rack_chunks = 0;
  std::uint64_t nodes_explored = 0;
  std::vector<RackSet> chosen;  // one per stripe
};

/// Exhaustive branch-and-bound over all combinations of valid minimal
/// per-stripe rack sets (enumerate_rack_sets), each accessed rack carrying
/// the stripe's lost-chunk count; returns std::nullopt when the search
/// would exceed `max_nodes` explored states.  Total traffic is identical
/// across all combinations, so this minimises max_i t_{i,f} (equivalently
/// λ).
std::optional<ExhaustiveResult> balance_exhaustive(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses, std::uint64_t max_nodes);

}  // namespace car::recovery
