// Structured event log for fault-injection runs.
//
// Every fault, transfer attempt, timeout, retry, crash, re-plan, and
// completion the resilient runtime observes is recorded as one Event with a
// virtual timestamp.  The log is the run's ground truth: JSON export uses a
// canonical field order and fixed-precision timestamps, so two runs with
// the same seed and FaultPlan serialise to *byte-identical* text — logs are
// diffable artifacts, and determinism is asserted by comparing them.
//
// An Event is a compact typed record.  BatchDriver's per-slice kinds
// (transfer attempt/complete/timeout/drop/corrupt, retry scheduled, compute
// complete) store their detail as typed fields plus the index of their
// batch's StepContext (batch label and slice grid); every other kind keeps
// free text in a side table the event indexes.  Detail text is rendered
// only by detail() and the exports (to_json), never when an event is
// recorded, so recording a step event allocates nothing beyond the log's
// own storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recovery/plan.h"

namespace car::inject {

enum class EventKind : std::uint8_t {
  kRunStart,
  kLinkFaultArmed,
  kTransferAttempt,
  kTransferComplete,
  kTransferTimeout,
  kTransferDrop,
  kTransferCorrupt,
  kRetryScheduled,
  kComputeComplete,
  kNodeCrash,
  kStepsCancelled,
  kReplanStart,
  kReplanValidated,
  kResume,
  kOutputsPublished,
  kRunComplete,
  // Rebuild control plane (src/rebuild).
  kMembershipChange,   // a failure event entered the membership tracker
  kScanComplete,       // exposure census finished for the new epoch
  kBatchDispatched,    // a prioritized batch of stripes entered execution
  kBatchComplete,      // ... and finished (outputs verified/published)
  kBatchCancelled,     // ... or was cancelled by a membership change
  kStripesRequeued,    // unfinished stripes of a cancelled batch re-queued
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Fixed-precision seconds ("%.9f"): virtual times are exact doubles from
/// deterministic arithmetic, and nanosecond grain renders them identically
/// on every run and platform.  Every finite double renders in full (1e300
/// keeps all 301 integer digits).  The JSON timestamps and every time
/// quoted in an event detail use it.
[[nodiscard]] std::string format_seconds(double t);

/// What every step event of one admitted batch shares: the label its
/// detail ends with and the slice grid it locates its slice on.
struct StepContext {
  std::size_t batch = 0;
  /// Details end ", batch N" (LogFraming::kBatches); untagged otherwise.
  bool tagged = false;
  /// The batch's slice grid; details name the slice only when > 1.
  std::uint64_t num_slices = 1;
  std::uint64_t slice_size = 0;

  friend bool operator==(const StepContext&, const StepContext&) = default;
};

/// One timestamped occurrence.  Unused numeric fields stay -1 (bytes: 0);
/// the JSON always serialises every field, and `seq` is the event's index
/// in its log, so the byte layout of a log is a pure function of the event
/// sequence.
///
/// The detail is stored, not rendered.  A free-text event (context ==
/// kNoContext) names its text by `arg` (kNoText: empty).  A step event
/// names its StepContext by `context`; its slice is step % num_slices, and
/// the rest of its detail sits in `arg`, `a`, `b` and `flags` per kind:
///   kTransferAttempt   a = dst; payload chunk (flags kChunkPayload):
///                      b = stripe, arg = chunk index; else b = step id
///   kTransferComplete  flags kLoopback or kCrossRack (neither: intra-rack)
///   kTransferTimeout   a = projected finish, b = deadline (double bits)
///   kTransferDrop      arg = fault index, b = ack deadline (double bits)
///   kTransferCorrupt   arg = fault index; a/b = checksums sent/got, or
///                      flags kNoChecksum (metadata-only stripe)
///   kRetryScheduled    a = backoff delay, b = retry time (double bits)
///   kComputeComplete   arg = input count
struct Event {
  static constexpr std::uint32_t kNoContext = UINT32_MAX;
  static constexpr std::uint32_t kNoText = UINT32_MAX;
  enum Flags : std::uint8_t {
    kChunkPayload = 1,
    kLoopback = 2,
    kCrossRack = 4,
    kNoChecksum = 8,
  };

  double t = 0.0;  // virtual seconds on the cluster timeline
  std::int64_t step = -1;
  std::int64_t node = -1;
  std::uint64_t bytes = 0;
  std::int32_t attempt = -1;
  EventKind kind = EventKind::kRunStart;
  std::uint8_t flags = 0;
  std::uint32_t context = kNoContext;
  std::uint32_t arg = kNoText;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(sizeof(Event) <= 64, "a step event must fit 64 bytes");

/// A log's events in fixed blocks of kBlockEvents: appending never copies
/// the events already held, and a long log carries at most one partly
/// filled block of slack instead of a doubling vector's.
class EventList {
 public:
  static constexpr std::size_t kBlockEvents = 4096;

  /// Walks the events in order (range-for).
  class Iterator {
   public:
    Iterator(const EventList* list, std::size_t index)
        : list_(list), index_(index) {}
    const Event& operator*() const { return (*list_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const EventList* list_;
    std::size_t index_;
  };

  /// Append a default event and return it.
  Event& emplace_back() {
    if (blocks_.empty() || blocks_.back().size() == kBlockEvents) {
      blocks_.emplace_back().reserve(kBlockEvents);
    }
    return blocks_.back().emplace_back();
  }

  [[nodiscard]] const Event& operator[](std::size_t i) const {
    return blocks_[i / kBlockEvents][i % kBlockEvents];
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return blocks_.empty()
               ? 0
               : (blocks_.size() - 1) * kBlockEvents + blocks_.back().size();
  }
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size()}; }

  /// Equal events fill equal blocks, so comparing blocks compares events.
  friend bool operator==(const EventList&, const EventList&) = default;

 private:
  std::vector<std::vector<Event>> blocks_;  // each reserved to kBlockEvents
};

class EventLog {
 public:
  /// Append a free-text event.
  void record(double t, EventKind kind, std::int64_t step = -1,
              std::int64_t attempt = -1, std::int64_t node = -1,
              std::uint64_t bytes = 0, std::string detail = {});

  /// Register a batch's step context; step events index it.
  [[nodiscard]] std::uint32_t add_context(const StepContext& context);

  // BatchDriver's step kinds, typed (see Event for what each stores).
  // `ctx` is an add_context index; none of these allocates beyond the
  // log's event storage.
  void transfer_attempt(std::uint32_t ctx, double t, std::uint64_t step,
                        std::size_t attempt, std::size_t src,
                        std::uint64_t bytes, std::size_t dst,
                        const recovery::BufferRef& payload);
  /// kLoopback / kCrossRack / 0 (intra-rack) in `route`.
  void transfer_complete(std::uint32_t ctx, double t, std::uint64_t step,
                         std::size_t attempt, std::size_t dst,
                         std::uint64_t bytes, std::uint8_t route);
  void transfer_timeout(std::uint32_t ctx, std::uint64_t step,
                        std::size_t attempt, std::size_t src,
                        std::uint64_t bytes, double projected,
                        double deadline);
  void transfer_drop(std::uint32_t ctx, double t, std::uint64_t step,
                     std::size_t attempt, std::size_t src, std::uint64_t bytes,
                     std::size_t fault, double deadline);
  /// `checksums` holds (sent, got); nullopt for a metadata-only stripe.
  struct Checksums {
    std::uint64_t sent = 0;
    std::uint64_t got = 0;
  };
  void transfer_corrupt(std::uint32_t ctx, double t, std::uint64_t step,
                        std::size_t attempt, std::size_t dst,
                        std::uint64_t bytes, std::size_t fault,
                        std::optional<Checksums> checksums);
  void retry_scheduled(std::uint32_t ctx, double t, std::uint64_t step,
                       std::size_t next_attempt, std::size_t src,
                       double delay, double retry_at);
  void compute_complete(std::uint32_t ctx, double t, std::uint64_t step,
                        std::size_t node, std::uint64_t bytes,
                        std::size_t inputs);

  [[nodiscard]] const EventList& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::size_t count(EventKind kind) const noexcept;

  /// The step context of a step event, nullptr for a free-text one.
  [[nodiscard]] const StepContext* context(const Event& event) const;

  /// The event's detail text, rendered from its stored fields.
  [[nodiscard]] std::string detail(const Event& event) const;

  /// Canonical JSON array, one event object per line, fixed field order,
  /// timestamps as %.9f seconds.  Byte-identical across identical runs.
  [[nodiscard]] std::string to_json() const;

  /// Human-oriented per-kind counts ("transfer-attempt x41, ...").
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const EventLog&, const EventLog&) = default;

 private:
  /// Append `event` with the common fields set.
  Event& push(double t, EventKind kind, std::uint64_t step,
              std::int64_t attempt, std::size_t node, std::uint64_t bytes,
              std::uint32_t ctx);
  /// Render `event`'s detail onto `out`, JSON-escaped when `json`.
  void append_detail(std::string& out, const Event& event, bool json) const;

  EventList events_;
  std::vector<std::string> texts_;     // free-text details, by Event::arg
  std::vector<StepContext> contexts_;  // by Event::context
};

}  // namespace car::inject
