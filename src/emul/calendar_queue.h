// Bucketed calendar/ladder queue for the virtual-clock replay engines.
//
// CalendarQueue is a min-priority queue over (time, key) pairs that pops in
// exact lexicographic order — bit-identical to
// std::priority_queue<pair<double,uint64_t>, ..., greater<>> — but with O(1)
// amortized insert/pop on the quantized virtual-time grid the link
// timelines produce, instead of O(log n) on one global heap whose working
// set thrashes the cache at datacenter scale.
//
// Structure (a two-rung ladder):
//
//   * One active rung of `bucket_count` buckets spanning
//     [rung_start, rung_start + bucket_count * width).  An event at time t
//     lands in bucket floor((t - rung_start) / width); buckets are plain
//     unsorted vectors until the drain cursor reaches them, at which point
//     the bucket is heapified once and drained as a tiny binary min-heap
//     (tens to a few hundred entries at the tuned width, so every heap op
//     touches one cache line instead of log2(n) of them).
//   * A sorted-on-demand overflow rung for far-future events at or beyond
//     the rung's end.  When the active rung drains, the overflow is
//     re-bucketed into a fresh rung whose geometry is derived from the
//     events it actually holds: width = (max - min) / bucket_count, with a
//     degenerate all-equal-times overflow falling back to unit width (the
//     rung then behaves like a single sorted bucket, which is still
//     correct — just no longer O(1)).
//
// Pop-order preservation: floor((t - rung_start) / width) is monotone in t,
// so every event in bucket b orders at or before every event in bucket b+1
// and strictly before everything in the overflow rung (routing uses the
// same floor arithmetic for inserts and re-bucketing, so an event can never
// land "behind" an equal-time event in a later structure).  Within a bucket
// the binary heap restores the full (time, key) order.  The one discipline
// the caller must honour — and the virtual-clock replays do, because a
// dependent's start time is at least its producer's finish time and forward
// deps give it a larger id — is MONOTONE INSERTION: every push must be
// strictly greater than the most recently popped (time, key).  Pushing
// behind the drain cursor trips a CAR_DCHECK in debug builds.
//
// Monotone insertion does NOT imply inserts land inside the active rung: a
// rewindow driven by a lone far-future event raises rung_start past the
// drain frontier, and a later push may legally fall in that gap (the
// rebuild control plane admits batches at the paused `now`, and the streamed
// arena replay ingests t_start seeds after running ahead of the feed).
// Such sub-rung times clamp to bucket 0, which push() merges into the live
// drain heap, so they still pop before everything in the rung.
//
// Not thread-safe: the arena replay in emul/cluster.cc and the fault-aware
// step loop in inject/driver.cc each own their queue outright and drain it
// on one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace car::emul {

class CalendarQueue {
 public:
  struct Entry {
    double time = 0.0;
    std::uint64_t key = 0;

    friend bool operator<(const Entry& a, const Entry& b) noexcept {
      return a.time != b.time ? a.time < b.time : a.key < b.key;
    }
  };

  /// `expected_events` tunes the bucket count (power of two, clamped); 0
  /// picks a general-purpose default.
  explicit CalendarQueue(std::size_t expected_events = 0);

  void push(double time, std::uint64_t key);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Smallest (time, key) entry.  Requires !empty(); may advance the drain
  /// cursor internally (hence non-const).
  [[nodiscard]] const Entry& top();

  /// Remove and return the smallest entry.  Requires !empty().
  Entry pop();

 private:
  /// Ensure cur_ holds the bucket containing the global minimum.
  void prepare();
  /// Rebuild the active rung from the overflow (requires the rung drained
  /// and the overflow non-empty).  Moves at least one event per call.
  void rewindow();
  /// Bucket index for `time`, or >= bucket_count_ when it belongs in the
  /// overflow rung.  Pure floor arithmetic — inserts and re-bucketing must
  /// agree exactly, or equal-time events could straddle the rung boundary
  /// out of order.  Times below rung_start_ (legal after a far-future
  /// rewindow; see the class comment) clamp to bucket 0 so the size_t
  /// cast never sees a negative value and the event joins the live drain
  /// heap instead of the overflow.
  [[nodiscard]] std::size_t bucket_index(double time) const noexcept;

  std::size_t bucket_count_ = 0;          // power of two
  double rung_start_ = 0.0;
  double width_ = 0.0;                    // 0 => rung not primed yet
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> cur_;                // heapified bucket being drained
  std::size_t cursor_ = 0;                // index cur_ was taken from
  std::vector<Entry> overflow_;           // unsorted, >= rung end
  std::size_t size_ = 0;
#ifndef NDEBUG
  Entry last_popped_{-1.0, 0};
  bool popped_any_ = false;
#endif
};

}  // namespace car::emul
