#include "recovery/balancer.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace car::recovery {

std::optional<ExhaustiveResult> balance_exhaustive(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses, std::uint64_t max_nodes) {
  CAR_CHECK(!censuses.empty(), "balance_exhaustive: no stripes");
  const std::size_t num_racks = placement.topology().num_racks();

  std::vector<std::vector<RackSet>> candidates(censuses.size());
  std::size_t total_traffic = 0;
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    const MultiStripeCensus& census = censuses[j];
    candidates[j] = enumerate_rack_sets(census.k, census.replacement_rack,
                                        census.surviving.ranked());
    total_traffic += candidates[j].front().racks.size() * census.lost_count();
  }

  ExhaustiveResult best;
  best.max_rack_chunks = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> t(num_racks, 0);
  std::vector<std::size_t> pick(censuses.size(), 0);
  std::uint64_t explored = 0;
  bool aborted = false;

  auto dfs = [&](auto&& self, std::size_t j, std::size_t running_max) -> void {
    if (aborted) return;
    if (++explored > max_nodes) {
      aborted = true;
      return;
    }
    if (running_max >= best.max_rack_chunks) return;  // bound: max only grows
    if (j == censuses.size()) {
      best.max_rack_chunks = running_max;
      best.chosen.clear();
      for (std::size_t s = 0; s < censuses.size(); ++s) {
        best.chosen.push_back(candidates[s][pick[s]]);
      }
      return;
    }
    const std::size_t weight = censuses[j].lost_count();
    for (std::size_t c = 0; c < candidates[j].size(); ++c) {
      std::size_t new_max = running_max;
      for (cluster::RackId rack : candidates[j][c].racks) {
        new_max = std::max(new_max, t[rack] += weight);
      }
      pick[j] = c;
      self(self, j + 1, new_max);
      for (cluster::RackId rack : candidates[j][c].racks) t[rack] -= weight;
      if (aborted) return;
    }
  };
  dfs(dfs, 0, 0);

  if (aborted) return std::nullopt;
  best.nodes_explored = explored;
  if (total_traffic == 0 || num_racks < 2) {
    best.lambda = 1.0;
  } else {
    const double avg = static_cast<double>(total_traffic) /
                       static_cast<double>(num_racks - 1);
    best.lambda = static_cast<double>(best.max_rack_chunks) / avg;
  }
  return best;
}

}  // namespace car::recovery
