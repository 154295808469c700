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
#include "recovery/census.h"

namespace car::recovery {

/// A valid minimal rack-level recovery solution: the intact racks to contact
/// (sorted ascending).  The failed rack's surviving chunks are always used
/// in addition (intra-rack, free at the rack level).
struct RackSet {
  std::vector<cluster::RackId> racks;

  [[nodiscard]] bool contains(cluster::RackId rack) const noexcept;
  friend bool operator==(const RackSet&, const RackSet&) = default;
};

/// Theorem 1: minimum number of intact racks d_j that must be contacted to
/// gather k chunks for stripe j.  Throws std::invalid_argument when even all
/// racks together cannot provide k chunks (placement bug).
std::size_t min_intact_racks(const StripeCensus& census);

/// All valid minimal solutions: every subset S of intact racks with
/// |S| == min_intact_racks and sum_{i in S} c_{i,j} + c'_{f,j} >= k.
/// Racks with zero chunks never appear in a solution.
std::vector<RackSet> enumerate_minimal_solutions(const StripeCensus& census);

/// The paper's initial pick (Algorithm 2 step 2): the minimal solution using
/// the intact racks with the most chunks (ties by lower rack id).
RackSet default_solution(const StripeCensus& census);

/// Check a rack set is a valid minimal solution for this census.
bool is_valid_minimal(const StripeCensus& census, const RackSet& set);

// ---------------------------------------------------------------------------
// Generalised core (shared with multi-failure recovery, recovery/multi.h).
// `home` is the rack hosting the replacement node, whose chunks are free at
// the rack level.
//
// The core runs on a sparse census: one RackCount per rack that can
// contribute at least one chunk, in rank order (ranks_before) — at most k+m
// entries however many racks the cluster has, so every query below is
// O(k+m).  The dense overloads take `available[i]`, how many chunks rack i
// can contribute, and rank it into that form.
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

/// Minimum number of non-home racks whose available chunks, together with
/// the home rack's, reach `needed`.  Throws std::invalid_argument when the
/// total available is below `needed`.
std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked);
std::size_t min_racks_for(std::size_t needed, cluster::RackId home,
                          std::span<const std::size_t> available);

/// All minimal rack sets for the generalised problem (see min_racks_for).
std::vector<RackSet> enumerate_rack_sets(
    std::size_t needed, cluster::RackId home,
    std::span<const std::size_t> available);

/// The default minimal rack set: the first min_racks_for non-home racks of
/// the ranking.
RackSet default_rack_set(std::size_t needed, cluster::RackId home,
                         std::span<const RackCount> ranked);
RackSet default_rack_set(std::size_t needed, cluster::RackId home,
                         std::span<const std::size_t> available);

/// Validity check for the generalised problem: min_racks_for distinct
/// non-home racks that each contribute a chunk and reach `needed` together
/// with the home rack.  False, never a throw, when `needed` is out of
/// reach.
bool is_valid_minimal_for(std::size_t needed, cluster::RackId home,
                          std::span<const RackCount> ranked,
                          const RackSet& set);
bool is_valid_minimal_for(std::size_t needed, cluster::RackId home,
                          std::span<const std::size_t> available,
                          const RackSet& set);

}  // namespace car::recovery
