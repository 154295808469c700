// Theorem 1 (minimum number of intact racks) and enumeration of all valid
// minimal rack-level recovery solutions for a stripe.
//
// A rack-level solution is the set of intact racks contacted; with partial
// decoding each contacted intact rack contributes exactly one cross-rack
// chunk, so minimising |set| minimises cross-rack repair traffic for the
// stripe, and enumerating the sets of minimum size gives the substitution
// candidates Algorithm 2 needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/types.h"

namespace car::recovery {

/// A valid minimal rack-level recovery solution: the intact racks to contact
/// (sorted ascending).  The failed rack's surviving chunks are always used
/// in addition (intra-rack, free at the rack level).
struct RackSet {
  std::vector<cluster::RackId> racks;

  [[nodiscard]] bool contains(cluster::RackId rack) const noexcept;
  friend bool operator==(const RackSet&, const RackSet&) = default;
};

// ---------------------------------------------------------------------------
// Theorem 1 on a sparse census.  `home` is the rack hosting the replacement
// node (under a single failure, the failed rack), whose chunks are free at
// the rack level.
//
// A census is one RackCount per rack that can contribute at least one
// chunk, in rank order (ranks_before; recovery/multi.h's RackCounts builds
// one) — at most k+m entries however many racks the cluster has, so every
// query below is O(k+m).
// ---------------------------------------------------------------------------

/// One rack of a sparse census: `count` >= 1 chunks available in `rack`.
struct RackCount {
  std::uint32_t rack = 0;
  std::uint32_t count = 0;

  friend bool operator==(const RackCount&, const RackCount&) = default;
};

/// The one rack ranking: more available chunks first, ties by lower rack
/// id.  Default rack sets take a prefix of it and materialisation reads
/// racks in it.
[[nodiscard]] constexpr bool ranks_before(const RackCount& a,
                                          const RackCount& b) noexcept {
  return a.count != b.count ? a.count > b.count : a.rack < b.rack;
}

/// Theorem 1: the minimum number of non-home racks whose available chunks,
/// together with the home rack's, reach `needed`.  Throws
/// std::invalid_argument when the total available is below `needed`.
std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked);

/// All minimal rack sets (see min_racks_for), each sorted ascending, in
/// lexicographic order — the substitution candidates of the exhaustive
/// optimiser.  Racks with no available chunk never appear.
std::vector<RackSet> enumerate_rack_sets(std::size_t needed,
                                         cluster::RackId home,
                                         std::span<const RackCount> ranked);

/// The paper's initial pick (Algorithm 2 step 2): the first min_racks_for
/// non-home racks of the ranking.
RackSet default_rack_set(std::size_t needed, cluster::RackId home,
                         std::span<const RackCount> ranked);

/// Validity check: min_racks_for distinct non-home racks that each
/// contribute a chunk and reach `needed` together with the home rack.
/// False, never a throw, when `needed` is out of reach.
bool is_valid_minimal_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked,
                          const RackSet& set);

}  // namespace car::recovery
