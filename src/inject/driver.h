// The fault-aware virtual-time step loop.
//
// BatchDriver is the one engine that runs recovery plans under injected
// faults: it lowers each admitted plan ("batch") onto a slice grid
// (recovery/slice.h) and executes its steps on one shared virtual
// timeline, with per-slice transfer timeouts (preview-based, no wire
// commit), bounded retries with seeded backoff, drop/corrupt fault
// matching via transfer_fault_applies, at-most-once traffic accounting,
// pooled zero-copy staging, and real GF kernels through
// recovery/compute.h.  A step becomes ready when the LAST of its
// dependencies finishes.
//
// It has two clients:
//   * ResilientRuntime (inject/runtime.h) runs one plan as a single batch
//     and turns node crashes into stops — a time-triggered crash is a
//     run_until deadline, a fraction-triggered one a step limit — then
//     cancels, re-plans, and admits the next plan on the same timeline.
//   * RebuildCoordinator (rebuild/coordinator.h) keeps several batches in
//     flight so cross-rack shipping of one overlaps partial decoding of
//     another, and injects membership changes between run_until calls.
//
// Admitted batches interleave on one (time, batch, step, attempt) calendar
// queue (emul/calendar_queue.h), so the pop order is a pure function of the
// admitted plans.  Every plan uses dense step ids from 0, so step-output
// buffer refs are biased by a per-batch base (the k-th admitted batch gets
// ids k << 32) before touching the cluster; chunk refs are globally unique
// already (batches own disjoint stripes).
//
// Node crashes are NOT handled here (the FaultPlan must not contain any):
// they are the clients' business.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "emul/calendar_queue.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "recovery/plan.h"
#include "recovery/slice.h"
#include "util/rng.h"
#include "util/stats.h"

namespace car::inject {

/// Per-transfer failure handling knobs.
struct RetryPolicy {
  /// A transfer attempt that has not delivered after this many virtual
  /// seconds is abandoned and retried.
  double transfer_timeout_s = 0.5;
  /// Total tries per transfer (first attempt included).  Exhaustion is a
  /// permanent failure: the run throws util::StateError.
  std::size_t max_attempts = 5;
  /// Retry delay for 1-based attempt a: min(base * factor^(a-1), cap),
  /// jittered by the run seed.
  util::BackoffSchedule backoff{0.01, 2.0, 0.25, 0.2};
};

/// What payload actually moves during a run.  The default carries real
/// bytes for every stripe.  A metadata-only run keeps the *identical*
/// event loop, virtual timeline, fault matching, retry schedule, and byte
/// accounting — every event lands at the same time with the same declared
/// bytes — but skips payload staging, GF compute, and buffer writes for
/// stripes not listed in sampled_stripes: their recoveries are measured,
/// not materialised.  Sampled stripes carry real bytes end to end, so a
/// seeded sample of a datacenter-scale run is still verified bit-exactly.
///
/// Caveat: a corrupt-fault checksum detail requires payload bytes, so
/// kTransferCorrupt events on *unsampled* stripes log a metadata-only
/// placeholder instead of real checksums.  When comparing a metadata run's
/// log byte-for-byte against a real-byte run, aim corrupt faults at
/// sampled stripes.
struct DataPolicy {
  bool metadata_only = false;
  /// Stripes that stay real-byte (order/duplicates irrelevant); ignored
  /// when metadata_only is false.
  std::vector<cluster::StripeId> sampled_stripes;
};

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
[[nodiscard]] std::string slicing_note(const recovery::SlicePlan& sliced);

class BatchDriver {
 public:
  /// `faults` must contain no node crashes (util::CheckError otherwise) —
  /// link and transfer faults only; link fault windows are armed relative
  /// to the cluster clock's time at construction.  `slice_bytes` == 0 means
  /// chunk-granular (one slice per step).
  BatchDriver(emul::Cluster& cluster, const FaultPlan& faults,
              const RetryPolicy& policy, std::uint64_t seed,
              std::uint64_t slice_bytes, DataPolicy data, EventLog& log,
              LogFraming framing = LogFraming::kBatches);

  /// Admit a non-empty plan as batch `batch_id` at the current virtual
  /// time.  All of its outputs must target plan.replacement, which must be
  /// alive.  The id labels the batch in outcomes and log details.  Returns
  /// the batch's lowering (valid until the next admit or cancel_all).
  const recovery::SlicePlan& admit(std::size_t batch_id,
                                   const recovery::RecoveryPlan& plan);

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
  /// outputs cluster-wide and forget the batches.  Returns one salvage
  /// report per cancelled batch (admit order); completed batches are not
  /// listed (their outputs were already published).
  std::vector<CancelledBatch> cancel_all();

  /// Advance the shared timeline (monotone).
  void advance_to(double t);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }
  /// Slice steps completed over the driver's lifetime, across batches.
  [[nodiscard]] std::size_t completed_steps() const noexcept {
    return completed_steps_;
  }
  [[nodiscard]] const emul::ExecutionReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

 private:
  struct Batch {
    std::size_t id = 0;
    recovery::SlicePlan sliced;  // carries the plan's outputs too
    std::vector<std::size_t> indegrees;
    std::vector<std::vector<std::size_t>> dependents;
    /// Latest finish among the dependencies completed so far.
    std::vector<double> ready_at;
    std::vector<char> done;
    std::size_t completed = 0;
    std::uint64_t buffer_base = 0;  // added to step-output buffer ids
    bool finished = false;
  };

  // (ready time, batch slot, step id, 1-based attempt) — ties break on the
  // earliest-admitted batch, then the lowest step id, then attempt, so the
  // pop order is a pure function of the admitted plans.  The three
  // non-time fields pack into one calendar-queue key as
  // slot(16) | step(32) | attempt(16), which makes the queue's (time, key)
  // lexicographic order exactly the tuple order; pack_event CHECKs the
  // field ranges.  Every push satisfies the queue's monotone-insertion
  // discipline: dependents are pushed no earlier than the finish being
  // processed, retries at a later time (or the same time with a larger
  // attempt), and admissions at now_ with a strictly larger slot.
  static std::uint64_t pack_event(std::size_t slot, std::size_t id,
                                  std::size_t attempt);

  /// True when this stripe's payload actually moves (every stripe in a
  /// real-byte run; only the sampled ones in a metadata-only run).
  [[nodiscard]] bool is_real(cluster::StripeId stripe) const;
  /// ", batch N" under LogFraming::kBatches, empty under kClient.
  [[nodiscard]] std::string tag(const Batch& batch) const;
  /// True when every slice of base step `base_step` has delivered.
  [[nodiscard]] static bool delivered(const Batch& batch,
                                      std::size_t base_step);
  [[nodiscard]] recovery::BufferRef biased(const recovery::BufferRef& ref,
                                           const Batch& batch) const;
  double run_compute(const Batch& batch, const recovery::PlanStep& step,
                     const recovery::SliceInfo& slice, double t);
  std::optional<double> run_transfer_attempt(std::size_t slot,
                                             const recovery::PlanStep& step,
                                             const recovery::SliceInfo& slice,
                                             double t, std::size_t attempt);
  /// Publish outputs of `batch` whose producing step delivered every slice
  /// (all of them when whole_batch).  Returns the published chunks.
  std::vector<PublishedChunk> publish_outputs(const Batch& batch,
                                              bool whole_batch);

  emul::Cluster& cluster_;
  FaultPlan faults_;
  RetryPolicy policy_;
  std::uint64_t seed_;
  std::uint64_t slice_bytes_;
  DataPolicy data_;
  EventLog& log_;
  LogFraming framing_;
  util::Rng backoff_rng_;
  std::vector<Batch> batches_;  // completed slots stay (finished == true)
  std::size_t admitted_ = 0;    // lifetime batch count, keys buffer_base
  std::size_t inflight_ = 0;
  std::size_t completed_steps_ = 0;
  emul::CalendarQueue queue_;
  double t0_;
  double now_;
  emul::ExecutionReport report_;
  RunStats stats_;
};

}  // namespace car::inject
