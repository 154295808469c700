#include "emul/calendar_queue.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/check.h"

namespace car::emul {

namespace {

// Min-heap ordering for std::push_heap / std::pop_heap (which build
// max-heaps under the given comparator, so invert it).
struct EntryGreater {
  bool operator()(const CalendarQueue::Entry& a,
                  const CalendarQueue::Entry& b) const noexcept {
    return b < a;
  }
};

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

CalendarQueue::CalendarQueue(std::size_t expected_events) {
  // Aim for tens of events per bucket on a uniformly spread timeline; the
  // clamp keeps the bucket array itself cache- and memory-friendly (the
  // upper bound is ~3 MiB of vector headers).
  const std::size_t hint = expected_events == 0 ? 4096 : expected_events / 32;
  bucket_count_ = next_pow2(std::clamp<std::size_t>(hint, 64, 1u << 17));
  buckets_.resize(bucket_count_);
  cursor_ = bucket_count_;  // empty rung: first prepare() rewindows
}

std::size_t CalendarQueue::bucket_index(double time) const noexcept {
  const double offset = (time - rung_start_) / width_;
  // Anything at or beyond the rung's span routes to the overflow; the cast
  // below is then guaranteed in range (bucket_count_ <= 2^17).
  if (!(offset < static_cast<double>(bucket_count_))) return bucket_count_;
  // Below the rung start: clamp to bucket 0 (a negative double to size_t
  // is UB, and routing to the overflow would pop the event AFTER the
  // rung).  This happens when rewindow() derives the rung from a
  // far-future overflow — rung_start_ becomes the overflow minimum, which
  // can sit well past the drain frontier — and the caller then pushes a
  // still-monotone event into that gap (e.g. a dependent released well
  // before a far-future retry that was the only event queued).  push()
  // diverts bucket 0 (always <= cursor_) into the live drain heap, which
  // restores exact (time, key) order; rewindow()'s re-bucketing never
  // sees sub-rung times because rung_start_ is the overflow minimum there.
  if (offset < 0.0) return 0;
  return static_cast<std::size_t>(offset);
}

void CalendarQueue::push(double time, std::uint64_t key) {
#ifndef NDEBUG
  if (popped_any_) {
    const Entry incoming{time, key};
    CAR_DCHECK(last_popped_ < incoming,
               "CalendarQueue::push behind the drain cursor (monotone "
               "insertion discipline violated)");
  }
#endif
  ++size_;
  if (width_ > 0.0) {
    const std::size_t b = bucket_index(time);
    if (b < bucket_count_) {
      if (b <= cursor_) {
        // Lands in the bucket being drained (a dependent whose start time
        // shares the current bucket): join the live heap.
        cur_.push_back(Entry{time, key});
        std::push_heap(cur_.begin(), cur_.end(), EntryGreater{});
      } else {
        buckets_[b].push_back(Entry{time, key});
      }
      return;
    }
  }
  overflow_.push_back(Entry{time, key});
}

void CalendarQueue::prepare() {
  while (cur_.empty()) {
    // Advance the cursor to the next populated bucket of the active rung.
    std::size_t next = cursor_ + 1;
    while (next < bucket_count_ && buckets_[next].empty()) ++next;
    if (next < bucket_count_) {
      cursor_ = next;
      // Keep cur_'s capacity: swap it (empty) into the bucket slot, which
      // the cursor never revisits this rung.
      std::swap(cur_, buckets_[next]);
      std::make_heap(cur_.begin(), cur_.end(), EntryGreater{});
      return;
    }
    CAR_CHECK_STATE(!overflow_.empty(),
                    "CalendarQueue: drained with events unaccounted for");
    rewindow();
  }
}

void CalendarQueue::rewindow() {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Entry& e : overflow_) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  rung_start_ = lo;
  if (hi > lo) {
    width_ = (hi - lo) / static_cast<double>(bucket_count_);
  } else {
    // Every queued event shares one timestamp — common at replay start,
    // where the whole zero-indegree frontier sits at t_start.  Any positive
    // width buckets them together; unit width keeps later, spread-out
    // inserts distributed instead of degenerating to a single heap.
    width_ = 1.0;
  }
  // An all-infinite overflow would give rung_start_ = inf, where every
  // offset is NaN and routes back to the overflow: prepare() would then
  // rewindow forever instead of failing.
  CAR_CHECK_STATE(std::isfinite(rung_start_) && width_ > 0.0 &&
                      std::isfinite(width_),
                  "CalendarQueue: non-finite rung start or bucket width "
                  "(event times must be finite)");
  cursor_ = 0;
  // Re-bucket in place: events inside the new rung move to their buckets
  // (index 0 holds at least every event at `lo`, so each rewindow makes
  // progress); the rest stay in the overflow.
  std::size_t keep = 0;
  for (Entry& e : overflow_) {
    const std::size_t b = bucket_index(e.time);
    if (b < bucket_count_) {
      buckets_[b].push_back(e);
    } else {
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  // The cursor starts on bucket 0: move it into cur_ if populated (it is
  // whenever the rung was rebuilt, since `lo` maps there).
  if (!buckets_[0].empty()) {
    std::swap(cur_, buckets_[0]);
    std::make_heap(cur_.begin(), cur_.end(), EntryGreater{});
  }
}

const CalendarQueue::Entry& CalendarQueue::top() {
  CAR_DCHECK(!empty(), "CalendarQueue::top on an empty queue");
  prepare();
  return cur_.front();
}

CalendarQueue::Entry CalendarQueue::pop() {
  CAR_DCHECK(!empty(), "CalendarQueue::pop on an empty queue");
  prepare();
  std::pop_heap(cur_.begin(), cur_.end(), EntryGreater{});
  const Entry out = cur_.back();
  cur_.pop_back();
  --size_;
#ifndef NDEBUG
  last_popped_ = out;
  popped_any_ = true;
#endif
  return out;
}

}  // namespace car::emul
