#include "recovery/solutions.h"

#include <algorithm>
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

}  // namespace

std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked) {
  const auto d = racks_needed(needed, home, ranked);
  CAR_CHECK(d.has_value(),
            "min_racks_for: fewer than `needed` chunks available — "
            "unrecoverable");
  return *d;
}

std::vector<RackSet> enumerate_rack_sets(std::size_t needed,
                                         cluster::RackId home,
                                         std::span<const RackCount> ranked) {
  const std::size_t d = min_racks_for(needed, home, ranked);
  std::vector<RackSet> out;
  if (d == 0) {
    out.push_back(RackSet{});  // the home rack alone suffices
    return out;
  }

  // Non-home racks by ascending id, so the sets come out sorted and in
  // lexicographic order.
  std::vector<RackCount> candidates;
  for (const RackCount& entry : ranked) {
    if (entry.rack != home) candidates.push_back(entry);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RackCount& a, const RackCount& b) {
              return a.rack < b.rack;
            });

  const std::size_t local = count_in(ranked, home);
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
      pick.push_back(candidates[i].rack);
      self(self, i + 1, sum + candidates[i].count);
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

}  // namespace car::recovery
