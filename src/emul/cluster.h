// In-process multi-node cluster emulator.
//
// This is the repository's stand-in for the paper's 20-machine testbed: one
// emulated node per "machine", each owning real chunk buffers; transfers
// move real bytes and reserve rate-limited links (node access links and
// oversubscribed rack core links, see emul/link.h); compute steps run the
// real GF(2^8) kernels.  Time is virtual (emul/clock.h): a deterministic
// timing pass charges each transfer its link reservations and each compute
// step a modelled decode time, so executing a RecoveryPlan reports a
// reproducible recovery time with a transmission/computation split — the
// quantities behind the paper's Fig. 9 and Fig. 10.
//
// Node liveness: erase_node wipes a node's buffers but leaves the slot
// usable (the single-failure methodology — the replacement machine takes
// over the failed node's id), while drop_node marks the node *dead* for the
// rest of the run: its buffers are gone, every transfer/compute/store that
// touches it fails, and an execute() in flight aborts.  drop_node is how
// the fault-injection runtime (src/inject) models a second node dying
// mid-recovery before escalating to the recovery/multi re-plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include <span>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "cluster/types.h"
#include "emul/clock.h"
#include "emul/link.h"
#include "recovery/plan.h"
#include "recovery/plan_arena.h"
#include "recovery/slice.h"
#include "rs/code.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace car::emul {

struct EmulConfig {
  /// Node <-> ToR link rate, bytes/second.  Deliberately scaled down from
  /// real hardware so experiments finish in seconds; only ratios matter.
  double node_bps = 400e6;

  /// Rack core-link rate = nodes_in_rack * node_bps / oversubscription,
  /// unless rack_link_bps overrides it.
  double oversubscription = 5.0;
  std::optional<double> rack_link_bps;

  /// Page size of link reservations (see LinkPath): each hop is charged
  /// page by page, so the size is part of the modelled timeline.
  std::uint64_t page_bytes = 128 * 1024;

  /// Compatibility field: ClockMode has the single value kVirtual.  It stays
  /// only while the e2e benchmark still assigns it, and goes with the
  /// benchmark change that drops that line.
  ClockMode clock_mode = ClockMode::kVirtual;

  /// Modelled GF(2^8) multiply-accumulate throughput charged per compute
  /// step, bytes/second of input processed.
  /// Calibrated against the dispatched SIMD kernels (BENCH_gf.json:
  /// mul_region_acc at 1 MiB, ~1.92e10 B/s on an AVX2 host); re-derive with
  /// `bench/micro_gf --json` when hardware or kernels change.
  double virtual_gf_bps = 1.9e10;
};

/// Options for Cluster::execute_arena.
struct ArenaExecOptions {
  /// Stripe shards for the payload pass: base steps are partitioned by
  /// stripe % shards and the shards run concurrently.  shards > 1 requires
  /// a stripe-closed arena (PlanArena::stripe_closed) — windowed schedules
  /// add cross-stripe deps and must run with shards == 1.
  std::size_t shards = 1;

  /// Compatibility field: must be 1 (any other value is a
  /// util::CheckError).  The timing replay is one sequential drain on the
  /// calling thread; the field stays only while the e2e benchmark still
  /// sets it, and goes with the benchmark change that drops that line.
  std::size_t replay_shards = 1;

  /// Metadata-only mode: steps of unsampled stripes move no payload and
  /// run no GF compute — only byte *counts* flow through accounting and
  /// the timing replay, which are identical to real-byte execution.
  /// Stripes listed in sampled_stripes still carry real bytes end to end,
  /// so a seeded sample of the recovery can be verified bit-exactly.
  bool metadata_only = false;

  /// Stripes that stay real-byte in metadata-only mode (order/duplicates
  /// irrelevant).  Ignored — every stripe is real — when metadata_only is
  /// false.
  std::vector<cluster::StripeId> sampled_stripes;
};

/// Producer-side watermark for Cluster::execute_arena_streaming: the plan
/// builder appends stripes into a pre-reserved arena and publishes how many
/// base steps are complete; the executor's payload shards and its timing
/// replay consume rows strictly below the watermark while instantiation is
/// still running.  Single writer (the instantiating thread), many readers.
class ArenaStreamFeed {
 public:
  /// Closes the feed when the producer's scope ends, however it ends.  A
  /// producer that throws or returns before publishing every base step
  /// then fails execute_arena_streaming with its closed-before-published
  /// StateError instead of leaving the executor waiting forever.
  class ProducerGuard {
   public:
    explicit ProducerGuard(ArenaStreamFeed& feed) noexcept : feed_(feed) {}
    ~ProducerGuard() { feed_.close(); }
    ProducerGuard(const ProducerGuard&) = delete;
    ProducerGuard& operator=(const ProducerGuard&) = delete;

   private:
    ArenaStreamFeed& feed_;
  };

  /// Publish that base steps [0, n_base) are fully appended (their columns,
  /// deps, and reverse deps will not change).  Monotone non-decreasing.
  void publish(std::uint64_t n_base) noexcept {
    published_.store(n_base, std::memory_order_release);
  }

  /// Producer is done: no further publish() calls will follow.  Call it
  /// after the arena is finalized (a ProducerGuard does), or the executor
  /// spins forever; calls after the first are no-ops.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> published_{0};
  std::atomic<bool> closed_{false};
};

/// Outcome of executing one recovery plan.
struct ExecutionReport {
  double wall_s = 0.0;              // end-to-end virtual makespan
  double compute_s = 0.0;           // summed modelled compute durations
  double replacement_compute_s = 0.0;  // modelled compute at the replacement
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t intra_rack_bytes = 0;
  std::vector<std::uint64_t> per_rack_cross_bytes;  // indexed by rack

  /// The paper's transmission-time proxy: the makespan minus the
  /// replacement node's computation time.
  [[nodiscard]] double transmission_s() const noexcept {
    return wall_s - replacement_compute_s;
  }
};

class Cluster {
 public:
  Cluster(cluster::Topology topology, EmulConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const cluster::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const EmulConfig& config() const noexcept { return config_; }

  /// The shared timeline every link reservation is expressed on.  Exposed
  /// for runtimes that drive step timing themselves (src/inject).
  [[nodiscard]] EmulClock& clock() noexcept;

  /// Store a chunk replica on a node (overwrites an existing copy).
  /// Throws std::out_of_range for a bad node id or when the buffer key
  /// cannot represent the ids (stripe >= 2^39 or chunk_index >= 2^24), and
  /// util::StateError when the node has been dropped.
  void store_chunk(cluster::NodeId node, cluster::StripeId stripe,
                   std::size_t chunk_index, rs::Chunk data);

  /// Fetch a chunk stored on a node, or nullptr when absent.  Throws
  /// std::out_of_range for ids outside the buffer-key range (see
  /// store_chunk).
  [[nodiscard]] const rs::Chunk* find_chunk(cluster::NodeId node,
                                            cluster::StripeId stripe,
                                            std::size_t chunk_index) const;

  /// Fetch a step-output buffer (e.g. a recovered chunk) on a node.
  [[nodiscard]] const rs::Chunk* find_step_output(cluster::NodeId node,
                                                  std::size_t step_id) const;

  /// Generic buffer access by plan reference (chunk or step output), for
  /// external step runtimes.  find_buffer returns nullptr when absent;
  /// put_buffer throws util::StateError when the node has been dropped.
  [[nodiscard]] const rs::Chunk* find_buffer(
      cluster::NodeId node, const recovery::BufferRef& ref) const;
  void put_buffer(cluster::NodeId node, const recovery::BufferRef& ref,
                  rs::Chunk data);

  /// Ranged buffer write for slice-level execution: ensure the buffer at
  /// `ref` on `node` holds exactly `full_size` bytes (materialised from the
  /// buffer pool when absent or mis-sized) and copy `data` into
  /// [offset, offset + data.size()).  Slice writers of one buffer serialise
  /// on the node's store lock; distinct slices touch disjoint ranges, so a
  /// plan whose slices cover the chunk assembles it exactly.  Throws
  /// std::out_of_range for a bad node id, util::StateError when the node
  /// has been dropped, and util::CheckError when the range exceeds
  /// full_size.
  void write_buffer_range(cluster::NodeId node, const recovery::BufferRef& ref,
                          std::uint64_t full_size, std::uint64_t offset,
                          std::span<const std::uint8_t> data);

  /// The buffer pool backing all transfer/compute staging and store
  /// buffers created by execution (see util/buffer_pool.h).  Exposed so
  /// external runtimes (src/inject) stage through the same pool and tests
  /// can assert the staging high-water mark.
  [[nodiscard]] util::BufferPool& buffer_pool() noexcept;

  /// Drop every buffer a node holds (single node failure).  The node slot
  /// stays usable — the replacement machine takes over its id.
  void erase_node(cluster::NodeId node);

  /// Permanently fail a node: wipe its buffers and mark it dead for the
  /// rest of the run.  Idempotent — dropping an already-dropped node is a
  /// no-op.  Throws std::out_of_range for a bad id and util::CheckError
  /// when the node holds a replacement guard (see add_replacement_guard) —
  /// of ANY generation, not just the newest: losing a recovery destination
  /// is not a recoverable scenario — pick a fresh replacement and re-plan
  /// instead.  An execute() in flight observes the drop and aborts with
  /// util::StateError.
  void drop_node(cluster::NodeId node);

  /// True when drop_node(node) has been called.
  [[nodiscard]] bool is_dropped(cluster::NodeId node) const;

  /// Protect a recovery destination: while a node holds at least one
  /// guard, drop_node on it throws.  Guards are counted (they nest) and
  /// independent per node, so every generation of a rolling multi-failure
  /// recovery keeps its replacement protected — re-planning onto a second
  /// replacement must not silently unguard the first, whose published
  /// outputs the resumed plan still reads.  Each node's first acquisition
  /// stamps a monotonically increasing generation number, echoed in the
  /// drop_node diagnostic.  execute() guards its plan's replacement
  /// automatically; external runtimes (src/inject, src/rebuild) hold
  /// guards around their own execution.  Returns the node's generation
  /// stamp.  Throws std::out_of_range for a bad id and util::CheckError
  /// when the node is already dropped.
  std::uint64_t add_replacement_guard(cluster::NodeId node);

  /// Release one guard on `node` (acquired via add_replacement_guard).
  /// Throws util::CheckError when the node holds no guard.
  void remove_replacement_guard(cluster::NodeId node);

  /// Nodes currently holding at least one replacement guard (ascending).
  [[nodiscard]] std::vector<cluster::NodeId> guarded_replacements() const;

  /// Remove every step-output buffer cluster-wide.  Called between a
  /// cancelled plan and its re-plan so the fresh plan's dense step ids
  /// cannot collide with stale partial results.
  void clear_step_outputs();

  /// The link path a transfer src -> dst traverses (loopback when
  /// src == dst).  Hops stay owned by the cluster; the path is valid for
  /// the cluster's lifetime.
  [[nodiscard]] LinkPath path(cluster::NodeId src, cluster::NodeId dst) const;

  /// Direct link handles, for arming fault windows (inject::FaultPlan).
  /// All throw std::out_of_range on a bad id.
  [[nodiscard]] SerialLink& node_up_link(cluster::NodeId node);
  [[nodiscard]] SerialLink& node_down_link(cluster::NodeId node);
  [[nodiscard]] SerialLink& rack_up_link(cluster::RackId rack);
  [[nodiscard]] SerialLink& rack_down_link(cluster::RackId rack);

  /// Generate random stripes per the placement, encode them with `code`,
  /// and store each chunk on its host node.  Returns the full original
  /// stripes (stripe -> chunk index -> bytes) for later verification.
  std::vector<std::vector<rs::Chunk>> populate(
      const cluster::Placement& placement, const rs::Code& code,
      std::uint64_t chunk_size, util::Rng& rng);

  /// Deterministic per-stripe data seed: the content of stripe `stripe` in
  /// a populate_sampled run is a pure function of (seed, stripe), never of
  /// which other stripes are materialised.  This is what makes a
  /// metadata-only run's sampled stripes byte-identical to the same
  /// stripes in a full real-byte run.
  [[nodiscard]] static std::uint64_t stripe_seed(
      std::uint64_t seed, cluster::StripeId stripe) noexcept;

  /// Populate only `stripes` (each seeded by stripe_seed(seed, s)), encode
  /// them with `code`, and store each chunk on its host node.  Returns
  /// stripe -> full original stripe for later verification.  Duplicate ids
  /// in `stripes` are populated once.  Throws util::CheckError on a zero
  /// chunk size or a stripe id outside the placement.
  std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>>
  populate_sampled(const cluster::Placement& placement, const rs::Code& code,
                   std::uint64_t chunk_size, std::uint64_t seed,
                   std::span<const cluster::StripeId> stripes);

  /// Execute a recovery plan: move every transfer's bytes and run every
  /// compute step on real buffers, then replay the timing.  Both passes run
  /// on the calling thread: the payload pass walks the DAG in a topological
  /// order, and a deterministic (virtual start time, id) replay reserves
  /// the links and charges modelled compute, so reported times are
  /// bit-identical across runs.  A plan that fails in the payload pass
  /// reserves no link time and leaves the clock where it was.  After
  /// success the recovered chunks are stored on the replacement node both
  /// as step outputs and as regular chunks.  Throws std::runtime_error when
  /// a referenced buffer is missing, a transfer's declared size disagrees
  /// with the stored payload, a step touches a dropped node, or a node is
  /// dropped mid-execution (abort), and util::CheckError
  /// (std::invalid_argument) when a step names a node outside the topology
  /// or the DAG is malformed (unknown dependency or cycle).  Internally
  /// lowers the plan onto a degenerate one-slice-per-step grid and runs the
  /// sliced core below — the identical computation, byte for byte.
  ExecutionReport execute(const recovery::RecoveryPlan& plan);

  /// Execute a slice-lowered plan (recovery/slice.h): same semantics as
  /// above, but transfer and compute steps run at slice granularity, so
  /// cross-rack shipping of slice s overlaps aggregation of slice s+1.
  /// Traffic accounting equals the base plan's bit for bit (slices of one
  /// transfer sum to exactly chunk_size).  All staging goes through the
  /// buffer pool — steady-state execution allocates nothing per slice.
  ExecutionReport execute(const recovery::SlicePlan& plan);

  /// Execute a columnar arena plan (recovery/plan_arena.h) without ever
  /// materialising per-slice step objects.  Two passes:
  ///
  ///   1. payload movement — base steps partitioned stripe % shards across
  ///      concurrent workers; real bytes move (and real GF kernels run)
  ///      only for stripes the options mark real, byte accounting always;
  ///   2. a sequential deterministic timing replay over the sliced id grid
  ///      on the calling thread — the identical (start time, id) walk
  ///      execute() uses, drained from one calendar queue, so for the same
  ///      plan the reported timeline, per-link occupancies, and byte totals
  ///      are bit-identical to execute(slice_plan(...)) and invariant in
  ///      both the shard count and metadata mode.
  ///
  /// Requires options.replay_shards == 1 and, for shards > 1, a
  /// stripe-closed arena (both util::CheckError).  A step naming a node
  /// outside the topology is a util::CheckError.  Other failure modes
  /// match execute().
  ExecutionReport execute_arena(const recovery::PlanArena& plan,
                                const ArenaExecOptions& options = {});

  /// Streaming variant of execute_arena: runs concurrently with the plan
  /// builder.  `plan` must already be reserve()d to its exact final extents
  /// (so no column ever reallocates); the producer appends stripes,
  /// publishes its progress through `feed`, finalizes the arena, and calls
  /// feed.close().  Payload shards process base steps as they are
  /// published, and the replay drains the t_start event frontier of
  /// published stripes immediately — everything later than t_start is
  /// globally ordered after rows still being appended, so it waits for
  /// close().  Every reported number is bit-identical to the barrier
  /// execute_arena on the finished arena.  Requires options.metadata_only
  /// or an empty plan of real stripes to verify against populated chunks
  /// exactly like execute_arena; other preconditions match execute_arena.
  ExecutionReport execute_arena_streaming(const recovery::PlanArena& plan,
                                          const ArenaExecOptions& options,
                                          ArenaStreamFeed& feed);

 private:
  /// Shared core of execute_arena / execute_arena_streaming; feed == nullptr
  /// runs the barrier (fully-built-plan) mode.
  ExecutionReport execute_arena_impl(const recovery::PlanArena& plan,
                                     const ArenaExecOptions& options,
                                     ArenaStreamFeed* feed);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  cluster::Topology topology_;
  EmulConfig config_;
};

}  // namespace car::emul
