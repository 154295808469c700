// The timed recovery pipeline as one call: census scan → CAR rack selection
// and Algorithm-2 balancing (or the RR baseline) → template-cached lowering
// into a PlanArena → the virtual-clock arena replay, after the arena is
// built (barrier) or overlapped with its lowering (streamed).  carctl's
// scale path and bench/micro_recovery call it.  Setup stays with the
// caller: populate the cluster (first_affected_stripes picks the usual
// metadata-only sample), erase the failed nodes, then recover and
// verify_outputs.  Every modelled number equals the hand-composed
// execute_arena(build_multi_*_arena(...)) run, in both modes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/replan.h"
#include "rs/code.h"

namespace car::emul {

struct RecoverOptions {
  recovery::Strategy strategy = recovery::Strategy::kCar;
  std::size_t balance_iterations = 0;  // CAR only
  std::uint64_t chunk_bytes = 0;
  std::uint64_t slice_bytes = 0;  // 0: one slice per chunk
  /// Append on a producer thread while execute_arena_streaming replays.
  bool stream = false;
  std::uint64_t rr_seed = 0;  // RR's survivor draw
  /// Payload shards (exec.shards also shards the census scan) and the
  /// metadata-only sample.
  ArenaExecOptions exec;
};

struct RecoverResult {
  ExecutionReport report;
  recovery::PlanArena arena;  // finished: outputs(), num_base_steps()
  std::size_t affected_stripes = 0;
  recovery::TemplateStats template_stats;
  /// Host seconds per phase; lower_s is reserve + append, and streamed
  /// the append overlaps replay_s.  recover_s is one wall-clock span from
  /// the census start to the replay end.
  double census_s = 0.0;
  double solve_s = 0.0;
  double lower_s = 0.0;
  double replay_s = 0.0;
  double recover_s = 0.0;
};

/// Recover `scenario`'s lost chunks onto scenario.replacement.  `cluster`
/// must hold the stripes with bytes (every one, or exec.sampled_stripes
/// under exec.metadata_only) with the failed nodes erased.  A failure that
/// hits no stripe returns an empty result; a streamed producer's error is
/// rethrown.
RecoverResult recover(Cluster& cluster, const cluster::Placement& placement,
                      const rs::Code& code,
                      const recovery::MultiFailureScenario& scenario,
                      const RecoverOptions& options);

/// The first `n` stripes in id order with a chunk on a `failed` node: the
/// census order, so the recovery's first `n` output stripes.
std::vector<cluster::StripeId> first_affected_stripes(
    const cluster::Placement& placement,
    std::span<const cluster::NodeId> failed, std::size_t n);

using Originals =
    std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>>;

struct VerifyCounts {
  std::size_t expected = 0;  // outputs whose stripe has originals
  std::size_t verified = 0;  // of those, bit-exact on the replacement
};

/// Byte-compare each recovered chunk in `outputs` (items with .stripe and
/// .chunk_index) whose stripe has originals with what `replacement` holds.
template <typename Outputs>
VerifyCounts verify_outputs(const Cluster& cluster,
                            cluster::NodeId replacement,
                            const Outputs& outputs,
                            const Originals& originals) {
  VerifyCounts counts;
  for (const auto& out : outputs) {
    const auto it = originals.find(out.stripe);
    if (it == originals.end()) continue;
    ++counts.expected;
    const rs::Chunk* got =
        cluster.find_chunk(replacement, out.stripe, out.chunk_index);
    counts.verified += got != nullptr &&
                       out.chunk_index < it->second.size() &&
                       *got == it->second[out.chunk_index];
  }
  return counts;
}

}  // namespace car::emul
