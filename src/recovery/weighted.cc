#include "recovery/weighted.h"

#include <algorithm>

#include "util/check.h"

namespace car::recovery {

namespace {

double bottleneck_of(const std::vector<std::size_t>& t,
                     const std::vector<double>& bandwidth,
                     cluster::RackId failed_rack) {
  double worst = 0.0;
  for (cluster::RackId i = 0; i < t.size(); ++i) {
    if (i == failed_rack) continue;
    worst = std::max(worst, static_cast<double>(t[i]) / bandwidth[i]);
  }
  return worst;
}

}  // namespace

double bottleneck_drain(const std::vector<MultiStripeSolution>& solutions,
                        const std::vector<double>& rack_bandwidth,
                        cluster::RackId failed_rack) {
  std::vector<std::size_t> t(rack_bandwidth.size(), 0);
  for (const auto& solution : solutions) {
    for (cluster::RackId rack : solution.rack_set.racks) {
      t[rack] += solution.lost_chunks.size();
    }
  }
  return bottleneck_of(t, rack_bandwidth, failed_rack);
}

WeightedBalanceResult balance_weighted(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses,
    const std::vector<double>& rack_bandwidth, std::size_t iterations) {
  CAR_CHECK(!censuses.empty(), "balance_weighted: no stripes to recover");
  const cluster::RackId home = censuses.front().replacement_rack;
  const std::size_t num_racks = placement.topology().num_racks();
  CAR_CHECK_EQ(rack_bandwidth.size(), num_racks,
               "balance_weighted: bandwidth arity mismatch");
  for (double b : rack_bandwidth) {
    CAR_CHECK(b > 0, "balance_weighted: bandwidths must be positive");
  }
  auto cost = [&](cluster::RackId rack, std::size_t chunks) {
    return static_cast<double>(chunks) / rack_bandwidth[rack];
  };

  std::vector<RackSet> chosen(censuses.size());
  std::vector<std::size_t> t(num_racks, 0);
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    CAR_CHECK_EQ(censuses[j].replacement_rack, home,
                 "balance_weighted: censuses disagree on the replacement rack");
    chosen[j] =
        default_rack_set(censuses[j].k, home, censuses[j].surviving.ranked());
    for (cluster::RackId rack : chosen[j].racks) {
      t[rack] += censuses[j].lost_count();
    }
  }

  WeightedBalanceResult result;
  result.bottleneck_trace.push_back(bottleneck_of(t, rack_bandwidth, home));

  std::vector<cluster::RackId> targets;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    // The rack whose estimated drain time bounds the recovery.
    cluster::RackId heaviest = home;
    double heaviest_cost = -1.0;
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i == home) continue;
      if (cost(i, t[i]) > heaviest_cost) {
        heaviest_cost = cost(i, t[i]);
        heaviest = i;
      }
    }
    if (heaviest == home || t[heaviest] == 0) break;

    // Candidate targets, cheapest post-move drain time first.  Accepting a
    // target requires its new drain time to stay strictly below the current
    // bottleneck, so the bottleneck never increases and ties cannot cycle.
    targets.clear();
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i == home || i == heaviest) continue;
      if (cost(i, t[i] + 1) < heaviest_cost) targets.push_back(i);
    }
    std::stable_sort(targets.begin(), targets.end(),
                     [&](cluster::RackId a, cluster::RackId b) {
                       return cost(a, t[a] + 1) < cost(b, t[b] + 1);
                     });

    bool substituted = false;
    for (cluster::RackId target : targets) {
      for (std::size_t j = 0; j < censuses.size() && !substituted; ++j) {
        const std::size_t weight = censuses[j].lost_count();
        if (cost(target, t[target] + weight) >= heaviest_cost) continue;
        auto& racks = chosen[j].racks;
        const auto slot = std::find(racks.begin(), racks.end(), heaviest);
        if (slot == racks.end() ||
            std::find(racks.begin(), racks.end(), target) != racks.end()) {
          continue;
        }
        // Swap in place; undo when the result is not a valid minimal set.
        *slot = target;
        if (!is_valid_minimal_for(censuses[j].k, home,
                                  censuses[j].surviving.ranked(),
                                  chosen[j])) {
          *slot = heaviest;
          continue;
        }
        std::sort(racks.begin(), racks.end());
        t[heaviest] -= weight;
        t[target] += weight;
        substituted = true;
      }
      if (substituted) break;
    }
    if (!substituted) break;
    ++result.substitutions;
    result.bottleneck_trace.push_back(bottleneck_of(t, rack_bandwidth, home));
  }

  result.solutions.reserve(censuses.size());
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    result.solutions.push_back(
        materialize_multi(placement, censuses[j], chosen[j]));
  }
  return result;
}

}  // namespace car::recovery
