// Self-healing rebuild control plane: scan, prioritize, overlap.
//
// RebuildCoordinator turns a schedule of membership events (node failures
// at virtual times; run_rebuild_scenario builds them from a scenario's node
// crashes, which are never part of the FaultPlan) into a finished rebuild:
//
//   1. Membership — the first failed node becomes the primary replacement
//      (its slot is wiped and re-used as the rebuild target, the paper's
//      single-replacement methodology) and is guarded against further
//      failure (emul::Cluster::add_replacement_guard); every later event
//      drops its node for good.  A crash aimed at the replacement — of any
//      re-plan generation — is rejected with a CAR_CHECK diagnostic.
//   2. Scan — at every membership change the coordinator rebuilds the
//      exposure census (recovery/exposure.h) from the placement, the
//      cumulative failed set, and the chunks already recovered: a pure
//      metadata pass, DAOS-style, that never touches payload bytes.
//   3. Prioritize — the census feeds a RebuildQueue ordered most-exposed
//      first (tolerance_left, then estimated cross-rack cost, then stripe
//      id), so a second failure that turns a queued fresh-degraded stripe
//      into a most-exposed one preempts everything behind it.
//   4. Overlap — up to max_inflight same-signature batches run concurrently
//      on one inject::BatchDriver timeline (the fault-aware policy of the
//      step engine the resilient runtime also runs on).  Each batch is
//      planned by recovery::plan_multi_failure_arena: CAR partial decoding
//      or the RR baseline, lowered straight into the batch's PlanArena
//      from the run's warm template cache on the run's slice grid, then
//      gated by recovery::validate_arena.  The arena is admitted only when
//      the gate passes; no chunk-granular plan is built.  A batch's
//      multi-failure census covers only the batch's own stripes
//      (recovery::build_multi_censuses' stripe-list form), so the whole
//      placement is scanned once per epoch, never once per batch — DAOS's
//      scan-once-then-pull split.
//   5. Re-plan — when a failure lands mid-rebuild the driver cancels every
//      in-flight batch, publishes the outputs that fully delivered, and the
//      coordinator re-scans and re-dispatches the remainder at the new
//      epoch — resumed chunks are recomputed from surviving placement
//      chunks, so the final bytes are identical to a sequential
//      one-failure-at-a-time recovery (the differential-test invariant).
//
// Everything is deterministic: one virtual timeline, seeded RNGs, and a
// canonical EventLog, so the same events + options reproduce a
// byte-identical log on any machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "rebuild/queue.h"
#include "recovery/exposure.h"
#include "recovery/plan_template.h"
#include "recovery/replan.h"
#include "rs/code.h"
#include "util/attributes.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace car::rebuild {

/// Recovery planner family for every batch of a run.
using Strategy = recovery::Strategy;

/// One membership event: `node` fails `at_s` virtual seconds after the
/// run starts.  The first event's node doubles as the rebuild target.
struct FailureEvent {
  cluster::NodeId node = 0;
  double at_s = 0.0;
};

struct RebuildOptions {
  Strategy strategy = Strategy::kCar;
  std::uint64_t chunk_bytes = 64 * 1024;
  /// Slice-pipelined execution granularity; 0 = chunk-granular.
  std::uint64_t slice_bytes = 0;
  /// Stripes dispatched per batch (same failure signature per batch).
  std::size_t batch_stripes = 4;
  /// Concurrent in-flight batches on the shared timeline.
  std::size_t max_inflight = 2;
  std::uint64_t seed = 7;
  /// Worker threads for the per-epoch exposure census, the one scan of the
  /// whole placement.  A sharded scan is bit-identical to a serial one for
  /// every count (recovery/exposure.h), so this is purely a host-time knob.
  /// The per-batch census covers only the batch's stripes and always runs
  /// on the calling thread.
  std::size_t scan_shards = 1;
  inject::RetryPolicy retry;
  /// Link/transfer adversity for the driver; failures are the `events`
  /// argument of run().
  inject::FaultPlan faults;
  inject::DataPolicy data;
};

/// One dispatched batch's lifecycle, in dispatch order.
struct BatchRecord {
  std::size_t id = 0;
  std::size_t stripes = 0;
  /// Exposure tier at dispatch: the minimum tolerance_left in the batch
  /// (0 = most exposed — one more failure would lose data).
  std::size_t tier = 0;
  double dispatched_at = 0.0;
  double completed_at = 0.0;  // meaningful when !cancelled
  bool cancelled = false;
};

struct RebuildMetrics {
  /// First event to last published chunk, virtual seconds.
  double makespan_s = 0.0;
  /// Exposure windows: a stripe is exposed while any of its chunks has no
  /// live replica anywhere.  total sums per-stripe window lengths; max is
  /// the longest single window.
  double total_exposure_s = 0.0;
  double max_exposure_s = 0.0;
  /// At-risk windows: the stripe's tolerance is exhausted (one more
  /// failure loses data) — the exposure-time-at-risk study metric.
  double total_at_risk_s = 0.0;
  double max_at_risk_s = 0.0;
  std::size_t scans = 0;
  std::size_t batches_dispatched = 0;
  std::size_t batches_cancelled = 0;
  /// Stripes whose batch was cancelled and that re-entered the queue.
  std::size_t stripes_requeued = 0;
  /// Planning-path host time (std::chrono, NOT virtual seconds — the only
  /// host-clock numbers in the result): metadata scans (one exposure census
  /// of the whole placement per epoch, plus each batch's census of its own
  /// stripes) and plan construction (balancing, the template lowering into
  /// the batch's arena, and validate_arena).
  double scan_host_s = 0.0;
  double plan_host_s = 0.0;
  /// Plan-template cache counters across every batch of the run
  /// (recovery/plan_template.h): hits + misses = plans instantiated from a
  /// template; misses = structural signatures actually planned.
  std::size_t template_cache_hits = 0;
  std::size_t template_cache_misses = 0;
};

struct RebuildResult {
  cluster::NodeId replacement = 0;
  std::vector<cluster::NodeId> failed_nodes;  // cumulative, event order
  inject::EventLog log;
  emul::ExecutionReport report;
  inject::RunStats stats;
  RebuildMetrics metrics;
  /// Every chunk recovered onto the replacement, sorted by (stripe, chunk).
  std::vector<inject::PublishedChunk> recovered;
  std::vector<BatchRecord> batches;  // dispatch order
};

/// One-shot orchestrator: construct, call run() once.  The cluster must be
/// populated (or carry a metadata DataPolicy) and use a virtual clock.
class RebuildCoordinator {
 public:
  RebuildCoordinator(emul::Cluster& cluster,
                     const cluster::Placement& placement, const rs::Code& code,
                     RebuildOptions options);

  /// Execute the failure schedule to a fully rebuilt cluster.  Events must
  /// be non-empty, at finite non-negative times, time-ordered
  /// (non-decreasing), and name distinct live nodes; an event targeting the replacement (the first event's node)
  /// propagates the cluster's replacement-guard CAR_CHECK.  Throws
  /// util::StateError when a batch plan fails static validation or a
  /// transfer exhausts its retries.
  RebuildResult run(std::span<const FailureEvent> events) CAR_BOUNDARY;

 private:
  struct DispatchedBatch {
    std::vector<cluster::StripeId> stripes;
    std::size_t record_index = 0;  // into result_.batches
    std::vector<inject::PublishedChunk> outputs;
  };

  /// Re-scan at a membership epoch: census -> windows -> queue.reset.
  void scan_epoch(std::size_t epoch) CAR_EXCLUDES(state_mu_);
  /// Pop one batch, lower it into an arena, validate it, admit it.  False
  /// when the queue is empty.
  bool dispatch_one(inject::BatchDriver& driver) CAR_EXCLUDES(state_mu_);
  /// Drive the loop until the deadline (or drained, with nullopt),
  /// refilling batch slots as they free up.
  void pump(inject::BatchDriver& driver, std::optional<double> deadline)
      CAR_EXCLUDES(state_mu_);
  void on_batch_complete(const inject::BatchDriver& driver,
                         std::size_t batch_id) CAR_EXCLUDES(state_mu_);
  /// Close the exposure/at-risk windows of stripes that are now fully
  /// re-protected.
  void close_windows(std::span<const cluster::StripeId> stripes, double now)
      CAR_REQUIRES(state_mu_);
  [[nodiscard]] bool stripe_recovered(cluster::StripeId stripe) const
      CAR_REQUIRES(state_mu_);

  emul::Cluster& cluster_;
  const cluster::Placement& placement_;
  const rs::Code& code_;
  RebuildOptions options_;
  RebuildQueue queue_;
  /// Plan templates persist across batches: same-signature batches (the
  /// common case under one failure epoch) reuse each other's templates, so
  /// per-batch planning cost collapses to id remapping after the first
  /// batch of a signature.
  recovery::PlanTemplateCache template_cache_;
  util::Rng rr_rng_;
  bool ran_ = false;
  std::vector<cluster::NodeId> failed_;
  cluster::NodeId replacement_ = 0;
  std::size_t next_batch_id_ = 0;
  std::unordered_map<std::size_t, DispatchedBatch> inflight_batches_;
  RebuildResult result_;

  /// Scan/completion state shared between the scan pass and batch
  /// completion handling (PR 7 lock discipline; the coordinator itself is
  /// single-threaded today, but the census consumers need not be).
  mutable util::Mutex state_mu_;
  recovery::RecoveredSet recovered_ CAR_GUARDED_BY(state_mu_);
  std::unordered_map<cluster::StripeId, double> exposure_since_
      CAR_GUARDED_BY(state_mu_);
  std::unordered_map<cluster::StripeId, double> at_risk_since_
      CAR_GUARDED_BY(state_mu_);
};

}  // namespace car::rebuild
