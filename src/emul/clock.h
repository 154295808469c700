// Virtual time source for the cluster emulator.
//
// The emulator expresses all link occupancy and step completion times as
// seconds on a single monotonic *timeline*, held in memory by an EmulClock.
// Nothing ever blocks on it: the timing passes that drive it reserve links
// and advance the clock, so a thousand-stripe recovery "takes" milliseconds
// of host time, and — because those passes are deterministic — the reported
// times are bit-identical across runs.
//
// The clock is shared by every link and step of one emul::Cluster and
// persists across execute() calls, so back-to-back plans on one cluster see
// a continuous timeline.  Like the cluster's link table it takes no lock:
// every timing pass that reads or advances it runs on one thread.
#pragma once

namespace car::emul {

/// Compatibility enum: virtual time is the only clock.  EmulConfig keeps a
/// field of this type only while the e2e benchmark still assigns it.
enum class ClockMode { kVirtual };

class EmulClock {
 public:
  /// Current position of the timeline, in seconds.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Raise the timeline to at least `t`.  Times in the past are a no-op.
  void advance_to(double t) noexcept {
    if (t > now_) now_ = t;
  }

 private:
  double now_ = 0.0;
};

}  // namespace car::emul
