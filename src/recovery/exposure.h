// Exposure census: per-stripe risk classification under rolling failures.
//
// The rebuild control plane (src/rebuild) schedules repairs by *exposure*:
// a stripe that has already lost m chunks is one failure away from data
// loss and must be rebuilt before a freshly degraded stripe that still has
// parity headroom (the Facebook warehouse-cluster study's prioritization,
// see PAPERS.md).  build_exposure_census scans the placement against the
// current failed-node set and classifies every affected stripe:
//
//   * exposed_chunks — chunks with no live replica anywhere (drives the
//     priority tier and the exposure-time metrics);
//   * plan_chunks    — chunks a re-plan must rebuild.  A chunk that was
//     already re-created on the replacement counts as *safe* (not exposed),
//     but unless its placement host IS the replacement the planner cannot
//     see the replica, so it stays in plan_chunks and is simply recomputed
//     — the same recompute-identical-bytes policy the crash-escalation
//     runtime uses (inject/runtime.h).
//
// The census is a pure function of (placement, failed set, recovered set):
// no cluster state is read, so the control plane can re-scan on every
// membership change without touching payload bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"

namespace car::recovery {

/// Chunks whose bytes have been re-created on the replacement node, keyed
/// by (stripe, chunk index).  Maintained by the rebuild coordinator as
/// batches publish outputs.
class RecoveredSet {
 public:
  void mark(cluster::StripeId stripe, std::size_t chunk_index);
  [[nodiscard]] bool contains(cluster::StripeId stripe,
                              std::size_t chunk_index) const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::unordered_set<std::uint64_t> keys_;
};

/// One affected stripe's risk state.
struct StripeExposure {
  cluster::StripeId stripe = 0;
  /// Chunk indices with no live replica (ascending).  empty() means the
  /// stripe is fully protected again (every lost chunk has a replacement
  /// replica) and needs no further work.
  std::vector<std::size_t> exposed_chunks;
  /// Chunk indices a re-plan must rebuild (ascending; superset of
  /// exposed_chunks — see the header comment).
  std::vector<std::size_t> plan_chunks;
  /// Placement hosts of plan_chunks, sorted ascending and deduplicated —
  /// the failure signature a recovery/multi scenario for this stripe needs.
  std::vector<cluster::NodeId> plan_hosts;
  /// Parity losses the stripe can still absorb: m - |exposed_chunks|.
  /// 0 = most exposed (one more failure loses data).
  std::size_t tolerance_left = 0;
  /// Theorem-1 lower bound on contributing racks for the re-plan, so the
  /// queue can tie-break by estimated cross-rack cost without planning.
  std::size_t min_racks = 0;

  /// Estimated cross-rack chunks shipped under CAR partial decoding: one
  /// partial per contributing rack per rebuilt chunk.
  [[nodiscard]] std::size_t cross_rack_cost() const noexcept {
    return min_racks * plan_chunks.size();
  }
};

/// Scan the placement against `failed_nodes` (the cumulative failed set;
/// the first entry's role as replacement is expressed via `replacement`)
/// and classify every stripe that still needs work.  Stripes whose plan set
/// is empty are omitted.  Throws util::CheckError when a stripe's exposed
/// count exceeds m (data loss — unrecoverable) or when a stripe's plan set
/// exceeds m (the planner cannot express reading a recovered replica from
/// the replacement for a chunk hosted elsewhere; see header comment).
///
/// `shards` > 1 splits the scan across that many worker threads over
/// contiguous stripe ranges; per-range outputs are concatenated in range
/// order, so the result is bit-identical to the serial scan for every
/// shard count.
std::vector<StripeExposure> build_exposure_census(
    const cluster::Placement& placement,
    const std::vector<cluster::NodeId>& failed_nodes,
    cluster::NodeId replacement, const RecoveredSet& recovered,
    std::size_t shards = 1);

}  // namespace car::recovery
