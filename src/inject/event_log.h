// Structured event log for fault-injection runs.
//
// Every fault, transfer attempt, timeout, retry, crash, re-plan, and
// completion the resilient runtime observes is recorded as one Event with a
// virtual timestamp.  The log is the run's ground truth: JSON export uses a
// canonical field order and fixed-precision timestamps, so two runs with
// the same seed and FaultPlan serialise to *byte-identical* text — logs are
// diffable artifacts, and determinism is asserted by comparing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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
/// on every run and platform.  The JSON timestamps and every time quoted in
/// an event detail use it.
[[nodiscard]] std::string format_seconds(double t);

/// One timestamped occurrence.  Unused numeric fields stay -1 (bytes: 0);
/// the JSON always serialises every field so the byte layout of a log is a
/// pure function of the event sequence.
struct Event {
  std::size_t seq = 0;
  double t = 0.0;  // virtual seconds on the cluster timeline
  EventKind kind = EventKind::kRunStart;
  std::int64_t step = -1;
  std::int64_t attempt = -1;
  std::int64_t node = -1;
  std::uint64_t bytes = 0;
  std::string detail;

  friend bool operator==(const Event&, const Event&) = default;
};

class EventLog {
 public:
  /// Append an event; seq is assigned from the running counter.
  void record(double t, EventKind kind, std::int64_t step = -1,
              std::int64_t attempt = -1, std::int64_t node = -1,
              std::uint64_t bytes = 0, std::string detail = {});

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::size_t count(EventKind kind) const noexcept;

  /// Canonical JSON array, one event object per line, fixed field order,
  /// timestamps as %.9f seconds.  Byte-identical across identical runs.
  [[nodiscard]] std::string to_json() const;

  /// Human-oriented per-kind counts ("transfer-attempt x41, ...").
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const EventLog&, const EventLog&) = default;

 private:
  std::vector<Event> events_;
};

}  // namespace car::inject
