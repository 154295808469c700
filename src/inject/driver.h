// The fault-aware policy of the one step engine.
//
// BatchDriver runs recovery plans under injected faults.  Each admitted
// batch is a PlanArena, already lowered on its slice grid by the client
// (both clients plan with recovery::plan_multi_failure_arena, straight
// from the plan-template cache), and the driver opens it as a
// segment of the step engine (emul/step_core.h), which owns the event
// order, dependency counts and dependents release.  The driver is the
// per-event policy: per-slice transfer timeouts (one walk of the path's
// links, committed only when the attempt delivers by its deadline), bounded
// retries with seeded backoff, drop/corrupt fault matching via
// transfer_fault_applies, at-most-once traffic accounting, per-slice
// logging as typed EventLog records (detail text is rendered only at
// export), and run_until's stops.  Payload moves zero-copy: a
// delivered transfer slice shares its source buffer (only a slice of a
// step output still being written is copied), a compute slice writes its
// range straight into the step output (recovery/compute.h), and a
// published output shares its step-output buffer.
//
// It has two clients:
//   * ResilientRuntime (inject/runtime.h) runs one arena as a single batch
//     and turns node crashes into stops — a time-triggered crash is a
//     run_until deadline, a fraction-triggered one a step limit — then
//     cancels, re-plans onto the same grid, and admits the new arena on
//     the same timeline.
//   * RebuildCoordinator (rebuild/coordinator.h) keeps several batches in
//     flight so cross-rack shipping of one overlaps partial decoding of
//     another, and injects membership changes between run_until calls.
//
// Events pop in (time, batch, step, attempt) order, a pure function of
// the admitted arenas; a finished batch's arena and step state are freed at
// once.  Each transfer row's link path is resolved once, at admit, not per
// slice attempt.  Arenas use dense step ids from 0, so step-output buffer
// refs are biased by a per-batch base (the k-th admitted batch gets ids
// k << 32); chunk refs are globally unique already (batches own disjoint
// stripes).
//
// Node crashes are not faults (FaultPlan has no such member): they are the
// clients' membership events, fired between run_until calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "emul/cluster.h"
#include "emul/step_core.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "recovery/plan_arena.h"
#include "util/rng.h"
#include "util/stats.h"

namespace car::inject {

/// Per-transfer failure handling knobs.  BatchDriver rejects a timeout
/// that is not positive (NaN included), max_attempts == 0, and an
/// infinite timeout under a drop fault.
struct RetryPolicy {
  /// A transfer attempt that has not delivered after this many virtual
  /// seconds is abandoned and retried.  +inf never times out: a transfer
  /// waits out any link blackout, but a dropped attempt is detected only at
  /// its timeout, so +inf cannot run with a drop fault.
  double transfer_timeout_s = 0.5;
  /// Total tries per transfer (first attempt included).  Exhaustion is a
  /// permanent failure: the run throws util::StateError.
  std::size_t max_attempts = 5;
  /// Retry delay for 1-based attempt a: min(base * factor^(a-1), cap),
  /// jittered by the run seed.
  util::BackoffSchedule backoff{0.01, 2.0, 0.25, 0.2};
};

/// What payload moves during a run (emul::DataPolicy): metadata-only
/// stripes keep every event, time and byte count of a real-byte run.
///
/// Caveat: a corrupt-fault checksum detail requires payload bytes, so
/// kTransferCorrupt events on *unsampled* stripes log a metadata-only
/// placeholder instead of real checksums.  When comparing a metadata run's
/// log byte-for-byte against a real-byte run, aim corrupt faults at
/// sampled stripes.
using DataPolicy = emul::DataPolicy;

struct RunStats {
  std::size_t attempts = 0;      // transfer attempts issued
  std::size_t retries = 0;       // attempts beyond the first
  std::size_t timeouts = 0;      // attempts abandoned at the deadline
  std::size_t drops = 0;         // attempts lost in flight (fault)
  std::size_t corruptions = 0;   // attempts rejected by checksum (fault)
  std::size_t replans = 0;       // crash escalations (ResilientRuntime)
  std::size_t cancelled_steps = 0;  // steps abandoned by cancel_all
  /// Bytes that crossed links in attempts that ultimately failed — wire
  /// waste, deliberately kept out of ExecutionReport's traffic totals.
  std::uint64_t wasted_wire_bytes = 0;
};

/// A (stripe, chunk index) recovered and published as a replica on the
/// replacement node.
struct PublishedChunk {
  cluster::StripeId stripe = 0;
  std::size_t chunk_index = 0;
};

/// Why run_until returned.
enum class StopReason : std::uint8_t {
  kIdle,       // no in-flight batch and nothing queued
  kBatchDone,  // a batch completed (outputs published); others may run on
  kDeadline,   // the next event would land at/after the given deadline
  kStepLimit,  // the step limit was reached (see run_until)
};

struct RunOutcome {
  StopReason stop = StopReason::kIdle;
  /// Batch ids that completed during this call (kBatchDone).
  std::vector<std::size_t> finished;
  /// kDeadline: the time of the first event left unprocessed.
  double next_event_s = 0.0;
};

/// One cancelled batch's salvage report.
struct CancelledBatch {
  std::size_t batch = 0;                  // admit()'s batch id
  std::vector<PublishedChunk> published;  // outputs that fully delivered
  std::vector<cluster::StripeId> unfinished_stripes;  // need re-planning
  std::size_t cancelled_steps = 0;        // slice steps abandoned
};

/// Who frames the event log around the driver's step events.
enum class LogFraming : std::uint8_t {
  /// The driver: link faults are logged at construction, every admit logs
  /// kRunStart, and every batch event's detail ends ", batch N".
  kBatches,
  /// The client, around one logical run (kRunStart, the armed link faults
  /// via log_link_faults, kRunComplete); batch events carry no tag.
  kClient,
};

/// One kLinkFaultArmed record per link fault of `faults`, at time `t`.
void log_link_faults(EventLog& log, const FaultPlan& faults, double t);

/// ", sliced S B xN (M slice steps)" for a lowering with more than one
/// slice per step; empty for a chunk-granular one.
[[nodiscard]] std::string slicing_note(const recovery::PlanArena& arena);

class BatchDriver {
 public:
  /// `policy` must pass RetryPolicy's rules (util::CheckError otherwise);
  /// link fault windows are armed relative to the cluster clock's time at
  /// construction.
  BatchDriver(emul::Cluster& cluster, const FaultPlan& faults,
              const RetryPolicy& policy, std::uint64_t seed,
              const DataPolicy& data, EventLog& log,
              LogFraming framing = LogFraming::kBatches);

  /// Admit a non-empty, finalized arena as batch `batch_id` at the current
  /// virtual time; its slice grid is the batch's.  All of its outputs must
  /// target arena.replacement(), which must be alive.  The id labels the
  /// batch in outcomes and log details.  Returns the batch's arena (valid
  /// until the batch finishes or cancel_all).
  const recovery::PlanArena& admit(std::size_t batch_id,
                                   recovery::PlanArena arena);

  /// Drive the shared event loop.  With a deadline (absolute virtual
  /// seconds), execution stops before processing any event scheduled at or
  /// after it.  With a step limit, execution stops right after the step
  /// completion that brings completed_steps() to the limit — before that
  /// step's batch publishes, even if it was the batch's last step, so the
  /// client is expected to cancel_all() next.  Throws util::StateError
  /// when a transfer exhausts its retry budget.
  RunOutcome run_until(std::optional<double> deadline,
                       std::optional<std::size_t> step_limit = std::nullopt);

  /// Cancellation protocol: for every in-flight batch, publish the
  /// outputs whose producing step delivered all slices, then wipe step
  /// outputs cluster-wide and forget the batches and their queued events.
  /// Returns one salvage report per cancelled batch (admit order);
  /// completed batches are not listed (their outputs were already
  /// published).
  std::vector<CancelledBatch> cancel_all();

  /// Advance the shared timeline (monotone).
  void advance_to(double t);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t inflight() const noexcept {
    return core_.segments().size();
  }
  /// Slice steps completed over the driver's lifetime, across batches.
  [[nodiscard]] std::size_t completed_steps() const noexcept {
    return completed_steps_;
  }
  [[nodiscard]] const emul::ExecutionReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

 private:
  /// An admitted batch: the engine segment's policy data.
  struct Batch {
    std::size_t id = 0;
    /// The lowering (it carries the plan's outputs too); the engine
    /// segment points into it.
    std::unique_ptr<const recovery::PlanArena> arena;
    /// Per base step: a transfer's link path (loopback for computes and
    /// same-node transfers), resolved once at admit.
    std::vector<emul::LinkPath> paths;
    std::vector<char> done;  // per sliced step: completed
    std::uint64_t buffer_base = 0;  // added to step-output buffer ids
    std::uint32_t log_context = 0;  // its EventLog step context
  };
  using Core = emul::StepCore<Batch>;
  struct Policy;  // the per-event hook run_until hands the engine

  /// ", batch N" under LogFraming::kBatches, empty under kClient.
  [[nodiscard]] std::string tag(const Batch& batch) const;
  /// True when every slice of base step `base_step` has delivered.
  [[nodiscard]] static bool delivered(const Batch& batch,
                                      std::size_t base_step);
  [[nodiscard]] recovery::BufferRef biased(const recovery::BufferRef& ref,
                                           const Batch& batch) const;
  /// Run a compute slice; returns its finish.
  double run_compute(const Core::Event& event);
  /// One attempt of a transfer slice: its delivery time, or nullopt after
  /// queueing the retry.
  std::optional<double> run_transfer_attempt(const Core::Event& event);
  /// Publish outputs of `batch` whose producing step delivered every slice
  /// (all of them when whole_batch).  Returns the published chunks.
  std::vector<PublishedChunk> publish_outputs(const Batch& batch,
                                              bool whole_batch);

  emul::Cluster& cluster_;
  FaultPlan faults_;
  RetryPolicy policy_;
  std::uint64_t seed_;
  DataPolicy data_;  // sorted(), for is_real
  EventLog& log_;
  LogFraming framing_;
  util::Rng backoff_rng_;
  std::size_t admitted_ = 0;  // lifetime batch count, keys buffer_base
  std::size_t completed_steps_ = 0;
  double t0_;
  double now_;
  emul::ExecutionReport report_;
  RunStats stats_;
  Core core_;  // open segments are the in-flight batches
};

}  // namespace car::inject
