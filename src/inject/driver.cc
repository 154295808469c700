#include "inject/driver.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "recovery/compute.h"
#include "recovery/scheduler.h"
#include "util/buffer_pool.h"
#include "util/check.h"

namespace car::inject {

namespace {

using recovery::BufferRef;
using recovery::PlanStep;
using recovery::SliceInfo;
using recovery::StepKind;

std::string fmt_hex(std::uint64_t v) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(v));
  return {buf.data()};
}

/// FNV-1a over a (slice of a) payload — the emulated transfer checksum.
/// Only used to produce a deterministic, human-checkable mismatch in
/// corrupt events.
std::uint64_t fnv64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string describe(const BufferRef& ref) {
  if (ref.kind == BufferRef::Kind::kChunk) {
    return "chunk s" + std::to_string(ref.stripe) + "#" +
           std::to_string(ref.chunk_index);
  }
  return "step-output #" + std::to_string(ref.step_id);
}

/// Log-detail suffix identifying the slice; empty for chunk-granular
/// lowerings, whose logs carry no slice grid at all.
std::string slice_suffix(const recovery::SlicePlan& sp, const SliceInfo& sl) {
  if (sp.num_slices <= 1) return {};
  return ", slice " + std::to_string(sl.slice + 1) + "/" +
         std::to_string(sp.num_slices) + " @" + std::to_string(sl.offset);
}

/// Per-batch bias for step-output buffer ids: the k-th admitted batch owns
/// the id range [k << 32, (k+1) << 32), so batches with dense plan ids
/// never collide in the cluster's step-output namespace (keys are
/// kStepBit | id with id < 2^63 — see emul/cluster.cc).
constexpr std::uint64_t kBatchIdStride = std::uint64_t{1} << 32;

}  // namespace

void log_link_faults(EventLog& log, const FaultPlan& faults, double t) {
  for (const auto& fault : faults.link_faults) {
    log.record(t, EventKind::kLinkFaultArmed, -1, -1,
               static_cast<std::int64_t>(fault.id), 0,
               std::string(to_string(fault.side)) + " #" +
                   std::to_string(fault.id) + " x" +
                   format_seconds(fault.factor) + " [" +
                   format_seconds(fault.start_s) + ", " +
                   format_seconds(fault.end_s) + ")");
  }
}

std::string slicing_note(const recovery::SlicePlan& sliced) {
  if (sliced.num_slices <= 1) return {};
  return ", sliced " + std::to_string(sliced.slice_size) + " B x" +
         std::to_string(sliced.num_slices) + " (" +
         std::to_string(sliced.steps.size()) + " slice steps)";
}

BatchDriver::BatchDriver(emul::Cluster& cluster, const FaultPlan& faults,
                         const RetryPolicy& policy, std::uint64_t seed,
                         std::uint64_t slice_bytes, DataPolicy data,
                         EventLog& log, LogFraming framing)
    : cluster_(cluster),
      faults_(faults),
      policy_(policy),
      seed_(seed),
      slice_bytes_(slice_bytes),
      data_(std::move(data)),
      log_(log),
      framing_(framing),
      backoff_rng_(seed ^ 0x8badf00ddeadbeefULL),
      t0_(cluster.clock().now()),
      now_(t0_) {
  CAR_CHECK(faults_.node_crashes.empty(),
            "BatchDriver: node crashes are handled by the driver's client, "
            "not the step loop — strip them from the driver's FaultPlan");
  faults_.validate(cluster_.topology());
  std::sort(data_.sampled_stripes.begin(), data_.sampled_stripes.end());
  report_.per_rack_cross_bytes.assign(cluster_.topology().num_racks(), 0);
  arm_link_faults(cluster_, faults_, t0_);
  if (framing_ == LogFraming::kBatches) log_link_faults(log_, faults_, now_);
}

std::uint64_t BatchDriver::pack_event(std::size_t slot, std::size_t id,
                                      std::size_t attempt) {
  CAR_CHECK_LT(slot, std::size_t{1} << 16,
               "BatchDriver: batch slot exceeds the 16-bit event key field");
  CAR_CHECK_LT(id, std::size_t{1} << 32,
               "BatchDriver: slice step id exceeds the 32-bit event key "
               "field");
  CAR_CHECK_LT(attempt, std::size_t{1} << 16,
               "BatchDriver: attempt exceeds the 16-bit event key field");
  return (static_cast<std::uint64_t>(slot) << 48) |
         (static_cast<std::uint64_t>(id) << 16) |
         static_cast<std::uint64_t>(attempt);
}

const recovery::SlicePlan& BatchDriver::admit(
    std::size_t batch_id, const recovery::RecoveryPlan& plan) {
  CAR_CHECK(!plan.steps.empty(), "BatchDriver: empty plan admitted");
  CAR_CHECK_LT(plan.steps.size(), kBatchIdStride,
               "BatchDriver: plan exceeds the per-batch step-id range");
  Batch batch;
  batch.id = batch_id;
  batch.sliced = recovery::slice_plan(
      plan, slice_bytes_ > 0 ? slice_bytes_
                             : std::max<std::uint64_t>(plan.chunk_size, 1));
  batch.indegrees = recovery::step_indegrees(
      std::span<const PlanStep>(batch.sliced.steps));
  batch.dependents = recovery::step_dependents(
      std::span<const PlanStep>(batch.sliced.steps));
  batch.ready_at.assign(batch.sliced.steps.size(), now_);
  batch.done.assign(batch.sliced.steps.size(), 0);
  batch.buffer_base = static_cast<std::uint64_t>(admitted_) * kBatchIdStride;
  ++admitted_;

  const std::size_t slot = batches_.size();
  for (std::size_t id = 0; id < batch.sliced.steps.size(); ++id) {
    if (batch.indegrees[id] == 0) queue_.push(now_, pack_event(slot, id, 1));
  }
  if (framing_ == LogFraming::kBatches) {
    log_.record(now_, EventKind::kRunStart, -1, -1,
                static_cast<std::int64_t>(plan.replacement), 0,
                std::to_string(plan.steps.size()) + " steps, " +
                    std::to_string(plan.outputs.size()) + " outputs" +
                    slicing_note(batch.sliced) + tag(batch));
  }
  batches_.push_back(std::move(batch));
  ++inflight_;
  return batches_.back().sliced;
}

RunOutcome BatchDriver::run_until(std::optional<double> deadline,
                                  std::optional<std::size_t> step_limit) {
  RunOutcome outcome;
  while (!queue_.empty()) {
    if (deadline && queue_.top().time >= *deadline) {
      outcome.stop = StopReason::kDeadline;
      outcome.next_event_s = queue_.top().time;
      return outcome;
    }
    const emul::CalendarQueue::Entry event = queue_.pop();
    const double t = event.time;
    const auto slot = static_cast<std::size_t>(event.key >> 48);
    const auto id =
        static_cast<std::size_t>((event.key >> 16) & 0xFFFFFFFFull);
    const auto attempt = static_cast<std::size_t>(event.key & 0xFFFFull);
    Batch& batch = batches_[slot];

    advance_to(t);
    const PlanStep& step = batch.sliced.steps[id];
    const SliceInfo& slice = batch.sliced.info[id];
    double finish = 0.0;
    if (step.kind == StepKind::kCompute) {
      finish = run_compute(batch, step, slice, t);
    } else {
      const auto attempt_finish =
          run_transfer_attempt(slot, step, slice, t, attempt);
      if (!attempt_finish) continue;  // failed; retry already queued
      finish = *attempt_finish;
    }

    batch.done[id] = 1;
    ++batch.completed;
    ++completed_steps_;
    advance_to(finish);
    // A dependent is ready when its LAST dependency finishes, which need
    // not be the one processed last.
    for (const std::size_t dep : batch.dependents[id]) {
      batch.ready_at[dep] = std::max(batch.ready_at[dep], finish);
      if (--batch.indegrees[dep] == 0) {
        queue_.push(batch.ready_at[dep], pack_event(slot, dep, 1));
      }
    }
    if (step_limit && completed_steps_ >= *step_limit) {
      outcome.stop = StopReason::kStepLimit;
      return outcome;
    }
    if (batch.completed == batch.sliced.steps.size()) {
      publish_outputs(batch, /*whole_batch=*/true);
      batch.finished = true;
      --inflight_;
      outcome.finished.push_back(batch.id);
      outcome.stop = StopReason::kBatchDone;
      return outcome;
    }
  }
  CAR_CHECK_STATE(inflight_ == 0,
                  "BatchDriver: event queue drained with " +
                      std::to_string(inflight_) +
                      " batches unfinished — dependency deadlock");
  outcome.stop = StopReason::kIdle;
  return outcome;
}

std::vector<CancelledBatch> BatchDriver::cancel_all() {
  std::vector<CancelledBatch> out;
  for (Batch& batch : batches_) {
    if (batch.finished) continue;
    CancelledBatch cancelled;
    cancelled.batch = batch.id;
    cancelled.cancelled_steps = batch.sliced.steps.size() - batch.completed;
    stats_.cancelled_steps += cancelled.cancelled_steps;
    log_.record(now_, EventKind::kStepsCancelled, -1, -1, -1, 0,
                std::to_string(cancelled.cancelled_steps) + " of " +
                    std::to_string(batch.sliced.steps.size()) + " steps" +
                    tag(batch));
    // Durability first: recovered chunks whose final step delivered every
    // slice are already correct — promote them to regular replicas before
    // the step outputs are wiped.  (A re-plan recomputes every lost chunk
    // anyway; published replicas are simply overwritten with identical
    // bytes.)
    cancelled.published = publish_outputs(batch, /*whole_batch=*/false);
    for (const auto& out_ref : batch.sliced.outputs) {
      if (!delivered(batch, out_ref.step_id) &&
          std::find(cancelled.unfinished_stripes.begin(),
                    cancelled.unfinished_stripes.end(),
                    out_ref.stripe) == cancelled.unfinished_stripes.end()) {
        cancelled.unfinished_stripes.push_back(out_ref.stripe);
      }
    }
    batch.finished = true;
    --inflight_;
    out.push_back(std::move(cancelled));
  }
  queue_ = emul::CalendarQueue{};
  batches_.clear();  // slots are spent; buffer bases never recycle
  cluster_.clear_step_outputs();
  return out;
}

bool BatchDriver::is_real(cluster::StripeId stripe) const {
  return !data_.metadata_only ||
         std::binary_search(data_.sampled_stripes.begin(),
                            data_.sampled_stripes.end(), stripe);
}

std::string BatchDriver::tag(const Batch& batch) const {
  if (framing_ == LogFraming::kClient) return {};
  return ", batch " + std::to_string(batch.id);
}

bool BatchDriver::delivered(const Batch& batch, std::size_t base_step) {
  for (std::uint64_t s = 0; s < batch.sliced.num_slices; ++s) {
    if (batch.done[batch.sliced.sliced_id(base_step, s)] == 0) return false;
  }
  return true;
}

BufferRef BatchDriver::biased(const BufferRef& ref,
                              const Batch& batch) const {
  if (ref.kind != BufferRef::Kind::kStepOutput) return ref;
  return BufferRef::step(ref.step_id + batch.buffer_base);
}

// Compute steps run the real GF kernels immediately; only their *timing* is
// modelled (step.bytes / virtual_gf_bps, the emulator's virtual charge —
// slice charges sum to the base step's).  The output slice is staged in a
// pooled lease and assembled into the base step's output buffer in place.
// The step contract checks and the fused GF combine are shared with the
// emulator (recovery/compute.h), so both execute compute steps
// bit-identically.
double BatchDriver::run_compute(const Batch& batch, const PlanStep& step,
                                const SliceInfo& slice, double t) {
  if (is_real(step.stripe)) {
    std::vector<const rs::Chunk*> inputs;
    inputs.reserve(step.inputs.size());
    for (const auto& in : step.inputs) {
      const rs::Chunk* buf =
          cluster_.find_buffer(step.node, biased(in.buffer, batch));
      CAR_CHECK_STATE(buf != nullptr,
                      "BatchDriver: compute input " + describe(in.buffer) +
                          " missing on node " + std::to_string(step.node) +
                          tag(batch));
      inputs.push_back(buf);
    }
    util::BufferLease out = cluster_.buffer_pool().acquire(
        static_cast<std::size_t>(slice.length));
    recovery::execute_compute_slice(step, inputs, batch.sliced.chunk_size,
                                    slice.offset, {out.data(), out.size()},
                                    "BatchDriver");
    cluster_.write_buffer_range(
        step.node, BufferRef::step(slice.base_step + batch.buffer_base),
        batch.sliced.chunk_size, slice.offset, {out.data(), out.size()});
  }

  const double dt =
      static_cast<double>(step.bytes) / cluster_.config().virtual_gf_bps;
  const double finish = t + dt;
  report_.compute_s += dt;
  if (step.node == batch.sliced.replacement) {
    report_.replacement_compute_s += dt;
  }
  log_.record(finish, EventKind::kComputeComplete,
              static_cast<std::int64_t>(step.id), -1,
              static_cast<std::int64_t>(step.node), step.bytes,
              std::to_string(step.inputs.size()) + " inputs" +
                  slice_suffix(batch.sliced, slice) + tag(batch));
  return finish;
}

// One transfer attempt of one slice.  Returns the delivery time on success;
// on timeout/drop/corruption returns nullopt after queueing the retry (or
// throws once the attempt budget is spent).
std::optional<double> BatchDriver::run_transfer_attempt(
    std::size_t slot, const PlanStep& step, const SliceInfo& slice, double t,
    std::size_t attempt) {
  const Batch& batch = batches_[slot];
  ++stats_.attempts;
  if (attempt > 1) ++stats_.retries;

  const bool real = is_real(step.stripe);
  std::span<const std::uint8_t> wire;
  if (real) {
    const rs::Chunk* payload =
        cluster_.find_buffer(step.src, biased(step.payload, batch));
    CAR_CHECK_STATE(payload != nullptr,
                    "BatchDriver: transfer payload " + describe(step.payload) +
                        " missing on node " + std::to_string(step.src) +
                        tag(batch));
    CAR_CHECK_STATE(payload->size() == batch.sliced.chunk_size,
                    "BatchDriver: transfer bytes do not match stored payload");
    wire = {payload->data() + slice.offset,
            static_cast<std::size_t>(slice.length)};
  }

  log_.record(t, EventKind::kTransferAttempt,
              static_cast<std::int64_t>(step.id),
              static_cast<std::int64_t>(attempt),
              static_cast<std::int64_t>(step.src), step.bytes,
              "-> " + std::to_string(step.dst) + ", " +
                  describe(step.payload) + slice_suffix(batch.sliced, slice) +
                  tag(batch));

  if (step.src == step.dst) {
    // Loopback never touches a link or a fault.  Stage the slice through a
    // pooled lease so the (self-)write is well-defined.
    if (real) {
      util::BufferLease staged = cluster_.buffer_pool().acquire(wire.size());
      std::memcpy(staged.data(), wire.data(), wire.size());
      cluster_.write_buffer_range(step.dst, biased(step.payload, batch),
                                  batch.sliced.chunk_size, slice.offset,
                                  {staged.data(), staged.size()});
    }
    log_.record(t, EventKind::kTransferComplete,
                static_cast<std::int64_t>(step.id),
                static_cast<std::int64_t>(attempt),
                static_cast<std::int64_t>(step.dst), 0,
                "loopback" + slice_suffix(batch.sliced, slice) + tag(batch));
    return t;
  }

  // The first declared fault that matches this (step, attempt) decides its
  // fate; the decision is order-independent (see fault.h).
  const TransferFault* fault = nullptr;
  std::size_t fault_index = 0;
  for (std::size_t i = 0; i < faults_.transfer_faults.size(); ++i) {
    if (transfer_fault_applies(faults_.transfer_faults[i], i, step.id,
                               attempt, seed_)) {
      fault = &faults_.transfer_faults[i];
      fault_index = i;
      break;
    }
  }

  const std::uint64_t page = cluster_.config().page_bytes;
  emul::LinkPath path = cluster_.path(step.src, step.dst);
  const double deadline = t + policy_.transfer_timeout_s;
  const double projected = path.preview(t, step.bytes, page);

  double failed_at = 0.0;
  if (projected > deadline) {
    // The sender gives up at the deadline without committing the link: an
    // abandoned attempt occupies no wire in this model.
    ++stats_.timeouts;
    failed_at = deadline;
    log_.record(deadline, EventKind::kTransferTimeout,
                static_cast<std::int64_t>(step.id),
                static_cast<std::int64_t>(attempt),
                static_cast<std::int64_t>(step.src), step.bytes,
                "projected finish " + format_seconds(projected) +
                    " past deadline " + format_seconds(deadline) + tag(batch));
  } else if (fault != nullptr &&
             fault->kind == TransferFault::Kind::kDrop) {
    // The bytes burn wire all the way, the receiver never sees them, and
    // the sender only learns at the ack deadline.
    const double finish = path.reserve(t, step.bytes, page);
    ++stats_.drops;
    stats_.wasted_wire_bytes += step.bytes;
    failed_at = deadline;
    log_.record(finish, EventKind::kTransferDrop,
                static_cast<std::int64_t>(step.id),
                static_cast<std::int64_t>(attempt),
                static_cast<std::int64_t>(step.src), step.bytes,
                "fault #" + std::to_string(fault_index) + ", ack deadline " +
                    format_seconds(deadline) + tag(batch));
  } else if (fault != nullptr) {  // kCorrupt
    const double finish = path.reserve(t, step.bytes, page);
    std::string checksums;
    if (real) {
      // Garble one byte of the slice in a pooled staging copy — the stored
      // payload stays pristine for the retry.
      util::BufferLease staged = cluster_.buffer_pool().acquire(wire.size());
      std::memcpy(staged.data(), wire.data(), wire.size());
      staged.data()[(step.id * 1315423911ULL + attempt) % staged.size()] ^=
          0xA5;
      checksums = ", checksum sent=" + fmt_hex(fnv64(wire)) + " got=" +
                  fmt_hex(fnv64({staged.data(), staged.size()}));
    } else {
      // No payload to checksum — see DataPolicy's corrupt caveat.
      checksums = ", checksum unavailable (metadata-only stripe)";
    }
    ++stats_.corruptions;
    stats_.wasted_wire_bytes += step.bytes;
    failed_at = finish;  // checksum mismatch is detected on delivery
    log_.record(finish, EventKind::kTransferCorrupt,
                static_cast<std::int64_t>(step.id),
                static_cast<std::int64_t>(attempt),
                static_cast<std::int64_t>(step.dst), step.bytes,
                "fault #" + std::to_string(fault_index) + checksums +
                    slice_suffix(batch.sliced, slice) +
                    tag(batch));
  } else {
    const double finish = path.reserve(t, step.bytes, page);
    if (real) {
      cluster_.write_buffer_range(step.dst, biased(step.payload, batch),
                                  batch.sliced.chunk_size, slice.offset,
                                  wire);
    }
    // At-most-once accounting: slice bytes land in the report here and only
    // here — failed attempts never reach this branch.  A transfer's slices
    // partition the chunk, so the delivered total per base step is exactly
    // chunk_size no matter the grid.
    if (step.cross_rack) {
      report_.cross_rack_bytes += step.bytes;
      report_.per_rack_cross_bytes[cluster_.topology().rack_of(step.src)] +=
          step.bytes;
    } else {
      report_.intra_rack_bytes += step.bytes;
    }
    log_.record(finish, EventKind::kTransferComplete,
                static_cast<std::int64_t>(step.id),
                static_cast<std::int64_t>(attempt),
                static_cast<std::int64_t>(step.dst), step.bytes,
                (step.cross_rack ? std::string("cross-rack")
                                 : std::string("intra-rack")) +
                    slice_suffix(batch.sliced, slice) +
                    tag(batch));
    return finish;
  }

  CAR_CHECK_STATE(attempt < policy_.max_attempts,
                  "BatchDriver: transfer step " + std::to_string(step.id) +
                      " permanently failed after " + std::to_string(attempt) +
                      " attempts" + tag(batch));
  const double delay = policy_.backoff.delay(attempt, backoff_rng_);
  const double retry_at = failed_at + delay;
  log_.record(failed_at, EventKind::kRetryScheduled,
              static_cast<std::int64_t>(step.id),
              static_cast<std::int64_t>(attempt + 1),
              static_cast<std::int64_t>(step.src), 0,
              "backoff " + format_seconds(delay) + "s, retry at " +
                  format_seconds(retry_at) + tag(batch));
  queue_.push(retry_at, pack_event(slot, step.id, attempt + 1));
  return std::nullopt;
}

std::vector<PublishedChunk> BatchDriver::publish_outputs(const Batch& batch,
                                                         bool whole_batch) {
  std::vector<PublishedChunk> published;
  for (const auto& out : batch.sliced.outputs) {
    if (!whole_batch && !delivered(batch, out.step_id)) continue;
    // Metadata-only stripes count as published (their recovery is
    // accounted, and the log must match a real-byte run's) but have no
    // bytes to store.
    if (is_real(out.stripe)) {
      const rs::Chunk* buf = cluster_.find_step_output(
          batch.sliced.replacement, out.step_id + batch.buffer_base);
      CAR_CHECK_STATE(buf != nullptr,
                      "BatchDriver: completed output of step " +
                          std::to_string(out.step_id) +
                          " missing on the replacement" +
                          tag(batch));
      cluster_.store_chunk(batch.sliced.replacement, out.stripe,
                           out.chunk_index, *buf);
    }
    published.push_back({out.stripe, out.chunk_index});
  }
  if (!published.empty() || whole_batch) {
    log_.record(now_, EventKind::kOutputsPublished, -1, -1,
                static_cast<std::int64_t>(batch.sliced.replacement),
                static_cast<std::uint64_t>(published.size()) *
                    batch.sliced.chunk_size,
                std::to_string(published.size()) + " of " +
                    std::to_string(batch.sliced.outputs.size()) +
                    " recovered chunks" + tag(batch));
  }
  return published;
}

void BatchDriver::advance_to(double t) {
  now_ = std::max(now_, t);
  cluster_.clock().advance_to(now_);
}

}  // namespace car::inject
