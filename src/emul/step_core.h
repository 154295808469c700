// The one step engine of the virtual-time executors: the dependency-driven
// event loop over PlanArena rows behind both Cluster::execute_arena's
// fault-free replay (emul/cluster.cc) and inject::BatchDriver.  It owns the
// per-step pending counts and ready times, a FIFO of zero-indegree steps
// (sorted by construction, so ~520k of a 1M-stripe recovery's events skip
// the heap), one calendar queue for the rest, the dependents release
// (slice s of a step is ready when slice s of its LAST dependency
// finishes) and a drain-frontier watchdog.
//
// Arenas enter as segments, opened and then ingested whole (admit) or as a
// streamed producer publishes rows.  The k-th segment owns the dense
// lifetime ids [first_k, first_k + n_k), first_k summing the sliced steps
// opened before it, and an event's key is lifetime_id << 16 | attempt, so
// events pop in (time, segment, sliced id, attempt) order — a pure function
// of the arenas — and monotonically: dependents start no earlier than the
// finish releasing them with larger ids, retries land later or with a
// larger attempt, and a new segment's seeds start now with larger ids.
//
// What an event does is a policy, a template argument of drain() that
// inlines into the loop:
//   bool stop_before(const CalendarQueue::Entry& next);  // true: return
//   std::optional<double> run(const Event& event);  // finish, or nullopt
//                                                   // (it may retry())
//   bool stop_after(const Event& event, double finish);  // true: return
// Not thread-safe: one thread drives a core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "emul/calendar_queue.h"
#include "recovery/plan_arena.h"
#include "util/check.h"

namespace car::emul {

/// `Data` is the policy's per-segment state (the replay keeps none).
template <typename Data = std::monostate>
class StepCore {
 public:
  static constexpr unsigned kAttemptBits = 16;

  struct Segment {
    const recovery::PlanArena* arena = nullptr;
    Data data;
    std::uint64_t first = 0;      // lifetime id of sliced step 0
    std::uint64_t rows = 0;       // base rows ingested so far
    std::uint64_t completed = 0;  // sliced steps completed
    std::vector<std::uint32_t> pending;  // per sliced step
    std::vector<double> ready_at;        // per sliced step
  };

  /// Sliced step `id` (= base * num_slices + slice) of `segment`'s arena,
  /// starting at `time`, 1-based `attempt`.
  struct Event {
    Segment& segment;
    std::uint64_t id;
    std::uint64_t base;
    std::uint64_t slice;
    double time;
    std::uint32_t attempt;
  };

  [[nodiscard]] static constexpr std::uint64_t key(
      std::uint64_t lifetime_id, std::uint64_t attempt) noexcept {
    return lifetime_id << kAttemptBits | attempt;
  }

  /// Events pop at or after `t_start`; `expected_events` sizes the
  /// calendar queue (0 picks its default).
  explicit StepCore(double t_start, std::size_t expected_events = 0)
      : queue_(expected_events), drained_{t_start, 0} {}

  /// Register `arena` (which must outlive the segment), whose steps start
  /// no earlier than `at`.  No row is ingested yet.
  Segment& open(const recovery::PlanArena& arena, double at, Data data = {}) {
    const std::uint64_t n = arena.num_sliced_steps();
    CAR_CHECK(n <= (std::uint64_t{1} << (64 - kAttemptBits)) - next_first_,
              "StepCore: more than 2^48 sliced steps opened");
    auto segment = std::make_unique<Segment>();
    segment->arena = &arena;
    segment->data = std::move(data);
    segment->first = next_first_;
    segment->pending.assign(n, 0);
    segment->ready_at.assign(n, at);
    next_first_ += n;
    segments_.push_back(std::move(segment));
    return *segments_.back();
  }

  /// Ingest base rows [segment.rows, rows): their pending counts, and their
  /// zero-indegree slices into the FIFO.
  void ingest(Segment& segment, std::uint64_t rows) {
    const recovery::PlanArena& arena = *segment.arena;
    for (std::uint64_t row = segment.rows; row < rows; ++row) {
      const auto degree = static_cast<std::uint32_t>(arena.deps(row).size());
      for (std::uint64_t s = 0; s < arena.num_slices(); ++s) {
        const std::uint64_t sid = arena.sliced_id(row, s);
        segment.pending[sid] = degree;
        if (degree == 0) {
          seeds_.push_back(
              {segment.ready_at[sid], key(segment.first + sid, 1)});
        }
      }
    }
    segment.rows = std::max(segment.rows, rows);
  }

  /// Queue the next attempt of `event`'s step at `at`.
  void retry(const Event& event, double at) {
    const std::uint64_t attempt = std::uint64_t{event.attempt} + 1;
    CAR_CHECK_LT(attempt, std::uint64_t{1} << kAttemptBits,
                 "StepCore: attempt exceeds the 16-bit event key field");
    queue_.push(at, key(event.segment.first + event.id, attempt));
  }

  /// Pop and run events in (time, key) order until the policy stops
  /// (returns true) or none is left (returns false).
  template <typename Policy>
  bool drain(Policy& policy) {
    for (;;) {
      const bool seeded = next_seed_ < seeds_.size();
      if (!seeded && queue_.empty()) return compact_seeds(false);
      const bool from_seed =
          seeded && (queue_.empty() || seeds_[next_seed_] < queue_.top());
      const CalendarQueue::Entry next =
          from_seed ? seeds_[next_seed_] : queue_.top();
      if (policy.stop_before(next)) return compact_seeds(true);
      if (from_seed) {
        ++next_seed_;
      } else {
        queue_.pop();
      }
      CAR_CHECK_STATE(!(next < drained_),
                      "StepCore: popped an event behind its drain frontier");
      drained_ = next;

      Segment& segment = segment_of(next.key >> kAttemptBits);
      const recovery::PlanArena& arena = *segment.arena;
      const std::uint64_t id = (next.key >> kAttemptBits) - segment.first;
      const auto attempt = static_cast<std::uint32_t>(
          next.key & ((std::uint64_t{1} << kAttemptBits) - 1));
      const Event event{segment,
                        id,
                        id / arena.num_slices(),
                        id % arena.num_slices(),
                        next.time,
                        attempt};
      const std::optional<double> finish = policy.run(event);
      if (!finish) continue;
      for (const std::uint64_t dep_base : arena.dependents(event.base)) {
        const std::uint64_t did = arena.sliced_id(dep_base, event.slice);
        segment.ready_at[did] = std::max(segment.ready_at[did], *finish);
        if (--segment.pending[did] == 0) {
          queue_.push(segment.ready_at[did], key(segment.first + did, 1));
        }
      }
      ++segment.completed;
      if (policy.stop_after(event, *finish)) return true;
    }
  }

  /// Open segments, in opening order.
  [[nodiscard]] std::span<const std::unique_ptr<Segment>> segments()
      const noexcept {
    return segments_;
  }

  /// Forget a segment with no event queued, freeing its state and data.
  void close(const Segment& segment) {
    std::erase_if(segments_, [&](const std::unique_ptr<Segment>& s) {
      return s.get() == &segment;
    });
  }

 private:
  /// The open segment owning `lifetime_id`.  There are few: one for the
  /// replay, the in-flight batches for the driver.
  Segment& segment_of(std::uint64_t lifetime_id) {
    for (const auto& segment : segments_) {
      if (lifetime_id - segment->first < segment->pending.size()) {
        return *segment;
      }
    }
    CAR_CHECK_FAIL("StepCore: event of a closed segment");
  }

  bool compact_seeds(bool stopped) {
    if (next_seed_ == seeds_.size()) {
      seeds_.clear();
      next_seed_ = 0;
    }
    return stopped;
  }

  CalendarQueue queue_;
  std::vector<CalendarQueue::Entry> seeds_;  // zero-indegree, sorted
  std::size_t next_seed_ = 0;
  CalendarQueue::Entry drained_;
  std::uint64_t next_first_ = 0;
  std::vector<std::unique_ptr<Segment>> segments_;  // in opening order
};

}  // namespace car::emul
