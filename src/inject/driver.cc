#include "inject/driver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "recovery/compute.h"
#include "util/check.h"

namespace car::inject {

namespace {

using recovery::BufferRef;
using recovery::kMaxComputeInputs;
using recovery::PlanArena;
using recovery::StepKind;

/// FNV-1a over a (slice of a) payload — the emulated transfer checksum —
/// as it arrives when the byte at index `garbled` is XORed with 0xA5 on
/// the wire (an index past the end leaves every byte intact).  Only used to
/// produce a deterministic, human-checkable mismatch in corrupt events.
std::uint64_t fnv64(std::span<const std::uint8_t> data,
                    std::size_t garbled = SIZE_MAX) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h ^= i == garbled ? data[i] ^ 0xA5u : data[i];
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

std::string slicing_note(const PlanArena& arena) {
  if (arena.num_slices() <= 1) return {};
  return ", sliced " + std::to_string(arena.slice_size()) + " B x" +
         std::to_string(arena.num_slices()) + " (" +
         std::to_string(arena.num_sliced_steps()) + " slice steps)";
}

BatchDriver::BatchDriver(emul::Cluster& cluster, const FaultPlan& faults,
                         const RetryPolicy& policy, std::uint64_t seed,
                         const DataPolicy& data, EventLog& log,
                         LogFraming framing)
    : cluster_(cluster),
      faults_(faults),
      policy_(policy),
      seed_(seed),
      data_(data.sorted()),
      log_(log),
      framing_(framing),
      backoff_rng_(seed ^ 0x8badf00ddeadbeefULL),
      t0_(cluster.clock().now()),
      now_(t0_),
      core_(t0_) {
  CAR_CHECK(policy_.transfer_timeout_s > 0,
            "BatchDriver: RetryPolicy::transfer_timeout_s must be positive");
  CAR_CHECK(policy_.max_attempts > 0,
            "BatchDriver: RetryPolicy::max_attempts must be at least 1");
  // A dropped attempt fails at its timeout, so +inf would queue its retry
  // at +inf, which the step engine cannot schedule.
  CAR_CHECK(std::isfinite(policy_.transfer_timeout_s) ||
                std::none_of(faults_.transfer_faults.begin(),
                             faults_.transfer_faults.end(),
                             [](const TransferFault& fault) {
                               return fault.kind == TransferFault::Kind::kDrop;
                             }),
            "BatchDriver: a drop fault needs a finite "
            "RetryPolicy::transfer_timeout_s");
  report_.per_rack_cross_bytes.assign(cluster_.topology().num_racks(), 0);
  arm_link_faults(cluster_, faults_, t0_);  // validates every fault first
  if (framing_ == LogFraming::kBatches) log_link_faults(log_, faults_, now_);
}

/// The driver as the step engine's policy, for one run_until call.
struct BatchDriver::Policy {
  BatchDriver& driver;
  std::optional<double> deadline;
  std::optional<std::size_t> step_limit;
  RunOutcome& outcome;
  const Core::Segment* finished = nullptr;  // kBatchDone: the batch

  bool stop_before(const emul::CalendarQueue::Entry& next) const {
    if (!deadline || next.time < *deadline) return false;
    outcome.stop = StopReason::kDeadline;
    outcome.next_event_s = next.time;
    return true;
  }

  std::optional<double> run(const Core::Event& event) {
    driver.advance_to(event.time);
    if (event.segment.arena->kind(event.base) == StepKind::kCompute) {
      return driver.run_compute(event);
    }
    return driver.run_transfer_attempt(event);
  }

  bool stop_after(const Core::Event& event, double finish) {
    event.segment.data.done[event.id] = 1;
    ++driver.completed_steps_;
    driver.advance_to(finish);
    if (step_limit && driver.completed_steps_ >= *step_limit) {
      outcome.stop = StopReason::kStepLimit;
      return true;
    }
    if (event.segment.completed == event.segment.pending.size()) {
      finished = &event.segment;
      outcome.stop = StopReason::kBatchDone;
      return true;
    }
    return false;
  }
};

const PlanArena& BatchDriver::admit(std::size_t batch_id, PlanArena arena) {
  CAR_CHECK(arena.num_base_steps() > 0, "BatchDriver: empty plan admitted");
  CAR_CHECK_LT(arena.num_base_steps(), kBatchIdStride,
               "BatchDriver: plan exceeds the per-batch step-id range");
  Batch batch;
  batch.id = batch_id;
  batch.arena = std::make_unique<const PlanArena>(std::move(arena));
  const PlanArena& admitted = *batch.arena;
  batch.paths.resize(admitted.num_base_steps());
  for (std::uint64_t base = 0; base < admitted.num_base_steps(); ++base) {
    if (admitted.kind(base) == StepKind::kTransfer) {
      batch.paths[base] = cluster_.path(admitted.src(base), admitted.dst(base));
    }
  }
  batch.done.assign(admitted.num_sliced_steps(), 0);
  batch.buffer_base = static_cast<std::uint64_t>(admitted_) * kBatchIdStride;
  batch.log_context = log_.add_context({batch_id,
                                        framing_ == LogFraming::kBatches,
                                        admitted.num_slices(),
                                        admitted.slice_size()});
  ++admitted_;
  if (framing_ == LogFraming::kBatches) {
    log_.record(now_, EventKind::kRunStart, -1, -1,
                static_cast<std::int64_t>(admitted.replacement()), 0,
                std::to_string(admitted.num_base_steps()) + " steps, " +
                    std::to_string(admitted.outputs().size()) + " outputs" +
                    slicing_note(admitted) + tag(batch));
  }
  Core::Segment& segment = core_.open(admitted, now_, std::move(batch));
  core_.ingest(segment, admitted.num_base_steps());
  return admitted;
}

RunOutcome BatchDriver::run_until(std::optional<double> deadline,
                                  std::optional<std::size_t> step_limit) {
  RunOutcome outcome;
  Policy policy{*this, deadline, step_limit, outcome};
  if (core_.drain(policy)) {
    if (policy.finished != nullptr) {
      const Batch& batch = policy.finished->data;
      publish_outputs(batch, /*whole_batch=*/true);
      outcome.finished.push_back(batch.id);
      core_.close(*policy.finished);  // frees the arena and step state
    }
    return outcome;
  }
  CAR_CHECK_STATE(inflight() == 0,
                  "BatchDriver: event queue drained with " +
                      std::to_string(inflight()) +
                      " batches unfinished — dependency deadlock");
  outcome.stop = StopReason::kIdle;
  return outcome;
}

std::vector<CancelledBatch> BatchDriver::cancel_all() {
  std::vector<CancelledBatch> out;
  for (const auto& segment : core_.segments()) {
    const Batch& batch = segment->data;
    CancelledBatch cancelled;
    cancelled.batch = batch.id;
    const std::uint64_t n_sliced = batch.arena->num_sliced_steps();
    cancelled.cancelled_steps =
        static_cast<std::size_t>(n_sliced - segment->completed);
    stats_.cancelled_steps += cancelled.cancelled_steps;
    log_.record(now_, EventKind::kStepsCancelled, -1, -1, -1, 0,
                std::to_string(cancelled.cancelled_steps) + " of " +
                    std::to_string(n_sliced) + " steps" + tag(batch));
    // Durability first: recovered chunks whose final step delivered every
    // slice are already correct — promote them to regular replicas before
    // the step outputs are wiped.  (A re-plan recomputes every lost chunk
    // anyway; published replicas are simply overwritten with identical
    // bytes.)
    cancelled.published = publish_outputs(batch, /*whole_batch=*/false);
    for (const auto& out_ref : batch.arena->outputs()) {
      if (!delivered(batch, out_ref.step_id) &&
          std::find(cancelled.unfinished_stripes.begin(),
                    cancelled.unfinished_stripes.end(),
                    out_ref.stripe) == cancelled.unfinished_stripes.end()) {
        cancelled.unfinished_stripes.push_back(out_ref.stripe);
      }
    }
    out.push_back(std::move(cancelled));
  }
  core_ = Core(now_);  // drops every queued event with the batches
  cluster_.clear_step_outputs();
  return out;
}

std::string BatchDriver::tag(const Batch& batch) const {
  if (framing_ == LogFraming::kClient) return {};
  return ", batch " + std::to_string(batch.id);
}

bool BatchDriver::delivered(const Batch& batch, std::size_t base_step) {
  for (std::uint64_t s = 0; s < batch.arena->num_slices(); ++s) {
    if (batch.done[batch.arena->sliced_id(base_step, s)] == 0) return false;
  }
  return true;
}

BufferRef BatchDriver::biased(const BufferRef& ref,
                              const Batch& batch) const {
  if (ref.kind != BufferRef::Kind::kStepOutput) return ref;
  return BufferRef::step(ref.step_id + batch.buffer_base);
}

// Compute steps run the real GF kernels immediately; only their *timing* is
// modelled (bytes / virtual_gf_bps, the emulator's virtual charge — slice
// charges sum to the base step's).  The output slice is written straight
// into its range of the base step's output buffer.  The step contract
// checks and the fused GF combine are shared with the emulator
// (recovery/compute.h), so both execute compute steps bit-identically.
double BatchDriver::run_compute(const Core::Event& event) {
  const Batch& batch = event.segment.data;
  const PlanArena& arena = *batch.arena;
  const std::uint64_t base = event.base;
  const std::uint64_t slice = event.slice;
  const cluster::NodeId node = arena.node(base);
  const std::size_t n_in = arena.num_inputs(base);
  const std::uint64_t bytes = arena.step_bytes(base, slice);
  if (data_.is_real(arena.stripe(base))) {
    CAR_CHECK_STATE(n_in <= kMaxComputeInputs,
                    "BatchDriver: compute arity exceeds the GF(2^8) bound");
    std::array<const rs::Chunk*, kMaxComputeInputs> inputs{};
    std::array<std::uint8_t, kMaxComputeInputs> coeffs{};
    for (std::size_t i = 0; i < n_in; ++i) {
      const recovery::ComputeInput in = arena.input(base, i);
      inputs[i] = cluster_.find_buffer(node, biased(in.buffer, batch));
      CAR_CHECK_STATE(inputs[i] != nullptr,
                      "BatchDriver: compute input " + describe(in.buffer) +
                          " missing on node " + std::to_string(node) +
                          tag(batch));
      coeffs[i] = in.coeff;
    }
    recovery::execute_compute_slice(
        {coeffs.data(), n_in}, bytes, {inputs.data(), n_in},
        arena.chunk_size(), arena.slice_offset(slice),
        cluster_.write_buffer_range(
            node, BufferRef::step(base + batch.buffer_base), arena.chunk_size(),
            arena.slice_offset(slice), arena.slice_length(slice)),
        "BatchDriver");
  }

  const double dt =
      static_cast<double>(bytes) / cluster_.config().virtual_gf_bps;
  const double finish = event.time + dt;
  report_.compute_s += dt;
  if (node == arena.replacement()) report_.replacement_compute_s += dt;
  log_.compute_complete(batch.log_context, finish, event.id, node, bytes,
                        n_in);
  return finish;
}

// One transfer attempt of one slice.  Returns the delivery time on success;
// on timeout/drop/corruption returns nullopt after queueing the retry (or
// throws once the attempt budget is spent).
std::optional<double> BatchDriver::run_transfer_attempt(
    const Core::Event& event) {
  const Batch& batch = event.segment.data;
  const PlanArena& arena = *batch.arena;
  const std::uint64_t id = event.id;
  const std::uint64_t base = event.base;
  const std::uint64_t slice = event.slice;
  const std::size_t attempt = event.attempt;
  const double t = event.time;
  const cluster::NodeId src = arena.src(base);
  const cluster::NodeId dst = arena.dst(base);
  const BufferRef payload_ref = arena.payload(base);
  const BufferRef stored = biased(payload_ref, batch);
  const std::uint64_t bytes = arena.step_bytes(base, slice);
  const std::uint64_t offset = arena.slice_offset(slice);
  const std::uint32_t ctx = batch.log_context;
  ++stats_.attempts;
  if (attempt > 1) ++stats_.retries;

  const bool real = data_.is_real(arena.stripe(base));
  std::span<const std::uint8_t> wire;
  if (real) {
    const rs::Chunk* payload = cluster_.find_buffer(src, stored);
    CAR_CHECK_STATE(payload != nullptr,
                    "BatchDriver: transfer payload " + describe(payload_ref) +
                        " missing on node " + std::to_string(src) +
                        tag(batch));
    CAR_CHECK_STATE(payload->size() == arena.chunk_size(),
                    "BatchDriver: transfer bytes do not match stored payload");
    wire = {payload->data() + offset, static_cast<std::size_t>(bytes)};
  }

  log_.transfer_attempt(ctx, t, id, attempt, src, bytes, dst, payload_ref);

  if (src == dst) {
    // Loopback never touches a link or a fault, and moves nothing: the
    // payload is already where it is going.
    log_.transfer_complete(ctx, t, id, attempt, dst, 0, Event::kLoopback);
    return t;
  }

  // The first declared fault that matches this (step, attempt) decides its
  // fate; the decision is order-independent (see fault.h).
  const TransferFault* fault = nullptr;
  std::size_t fault_index = 0;
  for (std::size_t i = 0; i < faults_.transfer_faults.size(); ++i) {
    if (transfer_fault_applies(faults_.transfer_faults[i], i, id, attempt,
                               seed_)) {
      fault = &faults_.transfer_faults[i];
      fault_index = i;
      break;
    }
  }

  // One walk of the path's links: the attempt commits them only when it
  // delivers by the deadline.
  const double deadline = t + policy_.transfer_timeout_s;
  emul::LinkPath path = batch.paths[base];  // a handle: the table changes
  const double finish =
      path.reserve_by(t, bytes, cluster_.config().page_bytes, deadline);

  double failed_at = 0.0;
  if (finish > deadline) {
    // The sender gives up at the deadline without committing the link: an
    // abandoned attempt occupies no wire in this model.
    ++stats_.timeouts;
    failed_at = deadline;
    log_.transfer_timeout(ctx, id, attempt, src, bytes, finish, deadline);
  } else if (fault != nullptr &&
             fault->kind == TransferFault::Kind::kDrop) {
    // The bytes burn wire all the way, the receiver never sees them, and
    // the sender only learns at the ack deadline.
    ++stats_.drops;
    stats_.wasted_wire_bytes += bytes;
    failed_at = deadline;
    log_.transfer_drop(ctx, finish, id, attempt, src, bytes, fault_index,
                       deadline);
  } else if (fault != nullptr) {  // kCorrupt
    // A metadata-only stripe has no payload to checksum (see DataPolicy's
    // corrupt caveat).
    std::optional<EventLog::Checksums> checksums;
    if (real) {
      // One byte of the slice arrives garbled; the receiver's checksum is
      // taken over the wire with that byte flipped on the fly, so the
      // stored payload stays pristine for the retry.
      const std::size_t garbled = (id * 1315423911ULL + attempt) % wire.size();
      checksums = {fnv64(wire), fnv64(wire, garbled)};
    }
    ++stats_.corruptions;
    stats_.wasted_wire_bytes += bytes;
    failed_at = finish;  // checksum mismatch is detected on delivery
    log_.transfer_corrupt(ctx, finish, id, attempt, dst, bytes, fault_index,
                          checksums);
  } else {
    // A complete payload (a stored chunk, or a step output with every
    // slice written) is shared into the destination: one address space, no
    // byte moves.  A slice of a step output still being assembled is
    // copied instead — sharing it would make each later slice write copy
    // the whole buffer.
    if (real && (payload_ref.kind == BufferRef::Kind::kChunk ||
                 delivered(batch, payload_ref.step_id))) {
      (void)cluster_.share_buffer(src, stored, dst, stored);
    } else if (real) {
      std::ranges::copy(wire, cluster_.write_buffer_range(
                                  dst, stored, arena.chunk_size(), offset,
                                  bytes).begin());
    }
    // At-most-once accounting: slice bytes land in the report here and only
    // here — failed attempts never reach this branch.  A transfer's slices
    // partition the chunk, so the delivered total per base step is exactly
    // chunk_size no matter the grid.
    if (arena.cross_rack(base)) {
      report_.cross_rack_bytes += bytes;
      report_.per_rack_cross_bytes[cluster_.topology().rack_of(src)] += bytes;
    } else {
      report_.intra_rack_bytes += bytes;
    }
    log_.transfer_complete(ctx, finish, id, attempt, dst, bytes,
                           arena.cross_rack(base) ? Event::kCrossRack : 0);
    return finish;
  }

  CAR_CHECK_STATE(attempt < policy_.max_attempts,
                  "BatchDriver: transfer step " + std::to_string(id) +
                      " permanently failed after " + std::to_string(attempt) +
                      " attempts" + tag(batch));
  const double delay = policy_.backoff.delay(attempt, backoff_rng_);
  const double retry_at = failed_at + delay;
  log_.retry_scheduled(ctx, failed_at, id, attempt + 1, src, delay, retry_at);
  core_.retry(event, retry_at);
  return std::nullopt;
}

std::vector<PublishedChunk> BatchDriver::publish_outputs(const Batch& batch,
                                                         bool whole_batch) {
  const PlanArena& arena = *batch.arena;
  std::vector<PublishedChunk> published;
  for (const auto& out : arena.outputs()) {
    if (!whole_batch && !delivered(batch, out.step_id)) continue;
    // Metadata-only stripes count as published (their recovery is
    // accounted, and the log must match a real-byte run's) but have no
    // bytes to store.  A real one's chunk key shares the step output.
    if (data_.is_real(out.stripe)) {
      CAR_CHECK_STATE(
          cluster_.share_buffer(
              arena.replacement(),
              BufferRef::step(out.step_id + batch.buffer_base),
              arena.replacement(),
              BufferRef::chunk(out.stripe, out.chunk_index)),
          "BatchDriver: completed output of step " +
              std::to_string(out.step_id) + " missing on the replacement" +
              tag(batch));
    }
    published.push_back({out.stripe, out.chunk_index});
  }
  if (!published.empty() || whole_batch) {
    log_.record(now_, EventKind::kOutputsPublished, -1, -1,
                static_cast<std::int64_t>(arena.replacement()),
                static_cast<std::uint64_t>(published.size()) *
                    arena.chunk_size(),
                std::to_string(published.size()) + " of " +
                    std::to_string(arena.outputs().size()) +
                    " recovered chunks" + tag(batch));
  }
  return published;
}

void BatchDriver::advance_to(double t) {
  now_ = std::max(now_, t);
  cluster_.clock().advance_to(now_);
}

}  // namespace car::inject
