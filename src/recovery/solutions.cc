#include "recovery/solutions.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/check.h"

namespace car::recovery {

bool RackSet::contains(cluster::RackId rack) const noexcept {
  return std::find(racks.begin(), racks.end(), rack) != racks.end();
}

namespace {

/// Theorem 1 on a sparse census, or nothing when even every rack together
/// cannot reach `needed`.
std::optional<std::size_t> racks_needed(
    std::size_t needed, cluster::RackId home,
    std::span<const RackCount> ranked) noexcept {
  std::size_t gathered = 0;
  for (const RackCount& entry : ranked) {
    if (entry.rack == home) gathered = entry.count;
  }
  std::size_t d = 0;
  for (const RackCount& entry : ranked) {
    if (gathered >= needed) break;
    if (entry.rack == home) continue;
    gathered += entry.count;
    ++d;
  }
  if (gathered < needed) return std::nullopt;
  return d;
}

std::size_t count_in(std::span<const RackCount> ranked,
                     cluster::RackId rack) noexcept {
  for (const RackCount& entry : ranked) {
    if (entry.rack == rack) return entry.count;
  }
  return 0;
}

/// The dense census in sparse rank order (racks with no chunk dropped).
std::vector<RackCount> rank_dense(std::span<const std::size_t> available) {
  CAR_CHECK_LE(available.size(),
               std::size_t{std::numeric_limits<std::uint32_t>::max()},
               "rack census: too many racks for a 32-bit rack id");
  std::vector<RackCount> ranked;
  for (cluster::RackId i = 0; i < available.size(); ++i) {
    if (available[i] == 0) continue;
    CAR_CHECK_LE(available[i],
                 std::size_t{std::numeric_limits<std::uint32_t>::max()},
                 "rack census: chunk count overflows 32 bits");
    ranked.push_back({static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(available[i])});
  }
  std::sort(ranked.begin(), ranked.end(), ranks_before);
  return ranked;
}

}  // namespace

std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked) {
  const auto d = racks_needed(needed, home, ranked);
  CAR_CHECK(d.has_value(),
            "min_racks_for: fewer than `needed` chunks available — "
            "unrecoverable");
  return *d;
}

std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const std::size_t> available) {
  CAR_CHECK_LT(home, available.size(),
               "min_racks_for: home rack out of range");
  return min_racks_for(needed, home, rank_dense(available));
}

std::vector<RackSet> enumerate_rack_sets(
    std::size_t needed, cluster::RackId home,
    std::span<const std::size_t> available) {
  const std::size_t d = min_racks_for(needed, home, available);
  std::vector<cluster::RackId> candidates;
  for (cluster::RackId i = 0; i < available.size(); ++i) {
    if (i != home && available[i] > 0) candidates.push_back(i);
  }

  std::vector<RackSet> out;
  if (d == 0) {
    out.push_back(RackSet{});  // the home rack alone suffices
    return out;
  }

  const std::size_t local = available[home];
  std::vector<cluster::RackId> pick;
  pick.reserve(d);
  // Depth-first enumeration of all d-subsets of the candidate racks that
  // gather at least `needed` chunks together with the home rack.
  auto dfs = [&](auto&& self, std::size_t next, std::size_t sum) -> void {
    if (pick.size() == d) {
      if (sum + local >= needed) out.push_back(RackSet{pick});
      return;
    }
    const std::size_t remaining = d - pick.size();
    for (std::size_t i = next; i + remaining <= candidates.size(); ++i) {
      pick.push_back(candidates[i]);
      self(self, i + 1, sum + available[candidates[i]]);
      pick.pop_back();
    }
  };
  dfs(dfs, 0, 0);
  return out;
}

RackSet default_rack_set(std::size_t needed, cluster::RackId home,
                         std::span<const RackCount> ranked) {
  const std::size_t d = min_racks_for(needed, home, ranked);
  RackSet set;
  set.racks.reserve(d);
  for (const RackCount& entry : ranked) {
    if (set.racks.size() == d) break;
    if (entry.rack != home) set.racks.push_back(entry.rack);
  }
  std::sort(set.racks.begin(), set.racks.end());
  return set;
}

RackSet default_rack_set(std::size_t needed, cluster::RackId home,
                         std::span<const std::size_t> available) {
  CAR_CHECK_LT(home, available.size(),
               "default_rack_set: home rack out of range");
  return default_rack_set(needed, home, rank_dense(available));
}

bool is_valid_minimal_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked,
                          const RackSet& set) {
  const auto d = racks_needed(needed, home, ranked);
  if (!d.has_value() || set.racks.size() != *d) return false;
  std::size_t sum = count_in(ranked, home);
  for (auto it = set.racks.begin(); it != set.racks.end(); ++it) {
    if (*it == home) return false;
    if (std::find(set.racks.begin(), it, *it) != it) return false;
    const std::size_t count = count_in(ranked, *it);
    if (count == 0) return false;
    sum += count;
  }
  return sum >= needed;
}

bool is_valid_minimal_for(std::size_t needed, cluster::RackId home,
                          std::span<const std::size_t> available,
                          const RackSet& set) {
  if (home >= available.size()) return false;
  return is_valid_minimal_for(needed, home, rank_dense(available), set);
}

// --- Single-failure wrappers (paper Theorem 1 terms) -----------------------

std::size_t min_intact_racks(const StripeCensus& census) {
  CAR_CHECK_LT(census.failed_rack, census.surviving.size(),
               "min_intact_racks: failed rack out of range");
  const auto d =
      racks_needed(census.k, census.failed_rack, rank_dense(census.surviving));
  CAR_CHECK(d.has_value(),
            "min_intact_racks: fewer than k surviving chunks — unrecoverable");
  return *d;
}

std::vector<RackSet> enumerate_minimal_solutions(const StripeCensus& census) {
  return enumerate_rack_sets(census.k, census.failed_rack, census.surviving);
}

RackSet default_solution(const StripeCensus& census) {
  return default_rack_set(census.k, census.failed_rack, census.surviving);
}

bool is_valid_minimal(const StripeCensus& census, const RackSet& set) {
  return is_valid_minimal_for(census.k, census.failed_rack, census.surviving,
                              set);
}

}  // namespace car::recovery
