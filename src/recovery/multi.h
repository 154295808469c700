// Cross-rack-aware recovery (CAR) for one or several failed nodes.
//
// The paper specifies CAR for a single failed node; this module is that
// planner, stated for a concurrent failure of several nodes (up to the
// code's tolerance of m lost chunks per stripe).  A single failure is the
// one-node case, make_multi_failure(placement, {node}), and every caller
// plans through here:
//
//  * Rack selection — per stripe, gather k chunks from the minimum number of
//    racks other than the replacement's (Theorem 1 on the surviving counts,
//    recovery/solutions.h).
//  * Partial decoding — with L lost chunks in a stripe, the repair matrix
//    Y = G_lost · X has L rows, and each contributing rack aggregates one
//    partially decoded chunk *per lost chunk*: cross-rack traffic is
//    L x (#racks accessed) chunks instead of L x k.
//  * Load balancing — Algorithm 2's greedy substitution pass, each
//    substitution moving weight L_j (the stripe's lost-chunk count) between
//    racks while keeping minimum traffic.  With one failed node L_j = 1 and
//    the pass is the paper's Algorithm 2 exactly.
//
// All lost chunks are rebuilt on a single replacement node, mirroring the
// paper's methodology.  This module decides what each stripe reads and
// where it is decoded; the repair DAG that carries it out is laid out once,
// by the plan templates (recovery/plan_template.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/metrics.h"
#include "recovery/plan.h"
#include "recovery/solutions.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car::recovery {

/// A concurrent failure of several nodes.
struct MultiFailureScenario {
  std::vector<cluster::NodeId> failed_nodes;
  /// Node that hosts the rebuilt chunks (must be one of failed_nodes or a
  /// fresh node; its rack anchors the traffic accounting).
  cluster::NodeId replacement = 0;
  cluster::RackId replacement_rack = 0;

  [[nodiscard]] bool is_failed(cluster::NodeId node) const noexcept;
};

/// Sparse census of one stripe's surviving chunks: a RackCount for each rack
/// holding at least one, kept in rank order (ranks_before) as chunks are
/// added.  A stripe touches at most k+m racks whatever the cluster size, so
/// the entries live inline; a stripe spread over more than kInline racks
/// moves them to the heap.
class RackCounts {
 public:
  static constexpr std::size_t kInline = 16;

  /// Count one more surviving chunk in `rack`.
  void add(cluster::RackId rack);

  [[nodiscard]] std::span<const RackCount> ranked() const noexcept {
    return {size_ > kInline ? spill_.data() : inline_.data(), size_};
  }

  friend bool operator==(const RackCounts& a, const RackCounts& b) noexcept {
    return std::ranges::equal(a.ranked(), b.ranked());
  }

 private:
  std::uint32_t size_ = 0;
  std::array<RackCount, kInline> inline_{};
  std::vector<RackCount> spill_;  // every entry, once size_ > kInline
};

/// Per-stripe state under a multi-failure.
struct MultiStripeCensus {
  cluster::StripeId stripe = 0;
  std::vector<std::size_t> lost_chunks;  // >= 1 chunk indices, ascending
  cluster::RackId replacement_rack = 0;
  std::size_t k = 0;
  RackCounts surviving;  // racks holding surviving chunks, ranked

  [[nodiscard]] std::size_t lost_count() const noexcept {
    return lost_chunks.size();
  }
};

/// Describe the failure of specific nodes; the first failed node acts as
/// replacement.  Throws std::invalid_argument on empty/duplicate node lists.
MultiFailureScenario make_multi_failure(const cluster::Placement& placement,
                                        std::vector<cluster::NodeId> nodes);

/// Same, with an explicit replacement — the epoch-aware form used by the
/// rebuild control plane (src/rebuild), where one primary replacement
/// persists across re-plan generations while each batch's failure
/// signature is only the subset of dead nodes still hosting that batch's
/// chunks.  `replacement` need not appear in `nodes`: a batch of stripes
/// with no chunk on the primary still rebuilds onto it.  Chunks already
/// recovered onto the replacement therefore count as surviving in its rack
/// when the caller omits their host from `nodes`.  Throws
/// std::invalid_argument on empty/duplicate lists or an out-of-range
/// replacement.
MultiFailureScenario make_multi_failure_onto(
    const cluster::Placement& placement, std::vector<cluster::NodeId> nodes,
    cluster::NodeId replacement);

/// Censuses for every stripe that lost at least one chunk.
/// Throws std::invalid_argument if any stripe lost more than m chunks
/// (beyond the code's tolerance — unrecoverable).
///
/// `shards` > 1 splits the scan across that many threads (the caller's
/// among them), each covering one contiguous stripe range; every census
/// lands in its range-ordered slot, so the result is bit-identical to the
/// serial scan for every shard count.
std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::size_t shards = 1);

/// Censuses for the listed stripes only — O(list), not O(placement): the
/// rebuild coordinator's per-batch census, where a batch is a few dozen
/// stripes of a cluster-sized placement.  `stripes` must be strictly
/// ascending, in range, and every listed stripe must lose at least one
/// chunk under `scenario`; a violation throws util::CheckError naming the
/// stripe (as does a stripe that lost more than m chunks).  The result is
/// the full census above filtered to the listed stripes, entry for entry;
/// an empty list yields an empty result.  Runs on the calling thread.
std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::span<const cluster::StripeId> stripes);

/// One contributing rack of a MultiStripeSolution, which reads the
/// solution's chunks[first, first + count).
struct PickRange {
  cluster::RackId rack = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;

  friend bool operator==(const PickRange&, const PickRange&) = default;
};

/// A materialised per-stripe multi-failure solution.  The chunks read are
/// one flat array with a range per contributing rack, not a vector per
/// rack: a full-rack failure materialises one of these per affected stripe.
struct MultiStripeSolution {
  cluster::StripeId stripe = 0;
  std::vector<std::size_t> lost_chunks;
  RackSet rack_set;  // racks (other than replacement's) accessed
  /// The k chunks read, grouped by contributing rack in pick order: the
  /// replacement's rack first when it contributes, then the chosen racks
  /// in rank order, of which only the last is trimmed.  Ascending within a
  /// rack.
  std::vector<std::size_t> chunks;
  std::vector<PickRange> picks;  // contributing racks, in pick order

  /// Cross-rack chunks shipped for this stripe: one partial per accessed
  /// rack per lost chunk.
  [[nodiscard]] std::size_t cross_rack_chunks() const noexcept {
    return rack_set.racks.size() * lost_chunks.size();
  }
  /// The chunk indices `pick` reads.
  [[nodiscard]] std::span<const std::size_t> chunks_of(
      const PickRange& pick) const noexcept {
    return std::span<const std::size_t>(chunks).subspan(pick.first,
                                                        pick.count);
  }
};

/// Materialise a valid minimal rack set into chunk picks (k chunks total).
/// Throws util::CheckError (a std::invalid_argument) when `set` is not a
/// valid minimal set for the census — an oversized one included.
MultiStripeSolution materialize_multi(const cluster::Placement& placement,
                                      const MultiStripeCensus& census,
                                      const RackSet& set);

/// Greedy weighted load balancing across stripes (Algorithm 2 generalised:
/// each substitution moves L_j partial chunks between racks and requires
/// t_l - t_i >= 2 * L_j so the maximum never increases).
struct MultiBalanceResult {
  std::vector<MultiStripeSolution> solutions;
  std::vector<double> lambda_trace;
  std::size_t substitutions = 0;
};
MultiBalanceResult balance_multi(const cluster::Placement& placement,
                                 const std::vector<MultiStripeCensus>& censuses,
                                 std::size_t iterations = 50);

/// Cross-rack traffic summary (chunk units, weighted by lost count).
TrafficSummary multi_traffic(const std::vector<MultiStripeSolution>& solutions,
                             std::size_t num_racks,
                             cluster::RackId replacement_rack);

/// Memoises repair vectors on a packed (lost chunk, survivor set) key.
///
/// The decode of a lost chunk from exactly k survivors is the unique
/// solution of a k x k system, so a survivor's coefficient depends only on
/// its chunk index, never its position in the survivor list.  Coefficients
/// are therefore stored canonically indexed by chunk index — coeffs()[c]
/// is chunk c's coefficient — which both collapses permutations of the
/// same survivor set onto one memo entry and lets callers skip positional
/// bookkeeping.  The packed key is (survivor bitset << 6) | lost index,
/// so chunk indices must stay below 58 (checked; k+m never approaches
/// that in practice).
class RepairMemo {
 public:
  /// Canonical decode coefficients for `lost` over `survivors` (which must
  /// be exactly k distinct chunk indices, as rs::Code::repair_vector
  /// requires).  The span is valid until the next coeffs() call inserts.
  std::span<const std::uint8_t> coeffs(const rs::Code& code, std::size_t lost,
                                       std::span<const std::size_t> survivors);

  [[nodiscard]] std::size_t size() const noexcept { return memo_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> memo_;
};

/// Compile into an executable plan: per contributing rack, the aggregator
/// computes one partial per lost chunk and ships each to the replacement.
/// Each stripe is an instance of its signature's plan template
/// (recovery/plan_template.h, where these builders are defined), off a
/// fresh template cache.  carctl, workload/trace, cfs and the figure
/// benches read this form; a caller that plans repeatedly lowers into an
/// arena off its own cache instead (build_multi_*_arena).  Throws
/// util::CheckError when chunk_size is 0.
RecoveryPlan build_multi_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    cluster::NodeId replacement);

/// RR-style baseline: fetch k random survivors per stripe to the
/// replacement, which decodes all lost chunks there.
struct MultiRrSolution {
  cluster::StripeId stripe = 0;
  std::vector<std::size_t> lost_chunks;
  std::vector<std::size_t> chunk_indices;  // k survivors fetched
};
std::vector<MultiRrSolution> plan_multi_rr(
    const cluster::Placement& placement,
    std::span<const MultiStripeCensus> censuses, util::Rng& rng);
TrafficSummary multi_rr_traffic(const cluster::Placement& placement,
                                const std::vector<MultiRrSolution>& solutions,
                                cluster::RackId replacement_rack);
/// The RR plan, built like build_multi_car_plan: a survivor already on
/// the replacement is read in place, without a transfer.
RecoveryPlan build_multi_rr_plan(const cluster::Placement& placement,
                                 const rs::Code& code,
                                 std::span<const MultiRrSolution> solutions,
                                 std::uint64_t chunk_size,
                                 cluster::NodeId replacement);

}  // namespace car::recovery
