// Bandwidth-aware load balancing for heterogeneous cross-rack links.
//
// The paper's Algorithm 2 balances *chunk counts* across racks, implicitly
// assuming every rack uplink has the same capacity.  Section IV-D remarks
// that a greedy strategy also suits "constantly changing network
// conditions"; this module realises that: each rack i has an available
// uplink bandwidth B_i, and the quantity balanced is the estimated drain
// time t_i / B_i.  A substitution moves one stripe's partial chunks (one
// per lost chunk) from the rack with the largest drain time to one that
// keeps the plan's bottleneck strictly below the current one, so the
// bottleneck drain time is monotonically non-increasing while total
// traffic stays minimum.  The rule differs from balance_multi's even on
// uniform bandwidths once a stripe loses two or more chunks, so the two
// stay separate passes.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/placement.h"
#include "recovery/multi.h"

namespace car::recovery {

struct WeightedBalanceResult {
  std::vector<MultiStripeSolution> solutions;
  /// Bottleneck drain time (max_i t_i / B_i, in chunk-units per unit
  /// bandwidth) after each applied substitution; entry 0 is the initial
  /// value.
  std::vector<double> bottleneck_trace;
  std::size_t substitutions = 0;

  [[nodiscard]] double initial_bottleneck() const {
    return bottleneck_trace.front();
  }
  [[nodiscard]] double final_bottleneck() const {
    return bottleneck_trace.back();
  }
};

/// Balance the per-rack cross-rack chunk counts against per-rack uplink
/// bandwidths.  `rack_bandwidth[i] > 0` for every rack (relative units are
/// fine; only ratios matter).  Throws std::invalid_argument on arity
/// mismatch, non-positive bandwidth, or empty census list.
WeightedBalanceResult balance_weighted(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses,
    const std::vector<double>& rack_bandwidth, std::size_t iterations = 50);

/// Estimated bottleneck drain time of a multi-stripe solution under the
/// given bandwidths (max over intact racks of t_i / B_i).
double bottleneck_drain(const std::vector<MultiStripeSolution>& solutions,
                        const std::vector<double>& rack_bandwidth,
                        cluster::RackId failed_rack);

}  // namespace car::recovery
