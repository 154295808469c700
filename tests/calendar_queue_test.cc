// Differential tests for the bucketed calendar queue: under the replay
// engines' monotone-insertion discipline (every push strictly greater than
// the last popped (time, key)), CalendarQueue must pop in EXACTLY the order
// of std::priority_queue<(time, key), greater<>> — same times bit for bit,
// same keys, across random streams, equal-timestamp bursts, far-future
// overflow re-bucketing, and quantization-boundary times.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "emul/calendar_queue.h"
#include "util/check.h"
#include "util/rng.h"

namespace car {
namespace {

using emul::CalendarQueue;

using RefEntry = std::pair<double, std::uint64_t>;
using RefHeap =
    std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<>>;

/// Pop one entry from both queues and require bit-identical (time, key).
void pop_both(CalendarQueue& queue, RefHeap& ref, std::size_t step) {
  ASSERT_FALSE(queue.empty()) << "pop " << step;
  ASSERT_FALSE(ref.empty()) << "pop " << step;
  const auto& top = queue.top();
  EXPECT_EQ(top.time, ref.top().first) << "pop " << step;
  EXPECT_EQ(top.key, ref.top().second) << "pop " << step;
  const CalendarQueue::Entry entry = queue.pop();
  EXPECT_EQ(entry.time, ref.top().first) << "pop " << step;
  EXPECT_EQ(entry.key, ref.top().second) << "pop " << step;
  ref.pop();
}

/// Drain both queues to empty, comparing every pop.
void drain_both(CalendarQueue& queue, RefHeap& ref) {
  std::size_t step = 0;
  while (!ref.empty()) {
    pop_both(queue, ref, step++);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

// --- random monotone streams --------------------------------------------

// Event-driven workload shaped like the replay engines: pop an event, then
// push a few dependents at a quantized later time with larger keys.  The
// quantized deltas make heavy time collisions (the grid the link timelines
// produce), so tie-breaking on key is constantly exercised.
TEST(CalendarQueue, RandomMonotoneStreamsMatchHeap) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 101u}) {
    util::Rng rng(seed);
    CalendarQueue queue(512);
    RefHeap ref;
    std::uint64_t next_key = 0;
    // Seed a burst of roots at quantized times.
    for (int i = 0; i < 64; ++i) {
      const double t = 1e-4 * static_cast<double>(rng.next_below(32));
      const std::uint64_t key = next_key++;
      queue.push(t, key);
      ref.emplace(t, key);
    }
    std::size_t pops = 0;
    while (!ref.empty() && pops < 20000) {
      const double now = ref.top().first;
      pop_both(queue, ref, pops++);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
      // Dependents: later quantized time, fresh (strictly larger) key.
      const std::uint64_t fanout =
          pops < 4000 ? rng.next_below(3) : 0;  // stop growing, then drain
      for (std::uint64_t d = 0; d < fanout; ++d) {
        const double t =
            now + 1e-4 * static_cast<double>(1 + rng.next_below(64));
        const std::uint64_t key = next_key++;
        queue.push(t, key);
        ref.emplace(t, key);
      }
    }
    drain_both(queue, ref);
  }
}

// --- equal-timestamp bursts ---------------------------------------------

TEST(CalendarQueue, EqualTimeBurstPopsInKeyOrder) {
  util::Rng rng(42);
  CalendarQueue queue(256);
  RefHeap ref;
  // Three bursts at the same instant each, keys shuffled at push time.
  for (const double t : {0.0, 0.5, 0.5000001}) {
    std::vector<std::uint64_t> keys(257);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<std::uint64_t>(t * 1e9) + i;
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    for (const auto key : keys) {
      queue.push(t, key);
      ref.emplace(t, key);
    }
  }
  drain_both(queue, ref);
}

// --- far-future overflow rung -------------------------------------------

// Events far beyond the active rung land in the overflow and are
// re-bucketed by rewindow() once the rung drains; pushes that arrive while
// the near events drain must still merge in exact order.
TEST(CalendarQueue, FarFutureOverflowRebucketsInOrder) {
  util::Rng rng(99);
  CalendarQueue queue(128);
  RefHeap ref;
  std::uint64_t next_key = 0;
  for (int i = 0; i < 500; ++i) {
    const double t = 1e-3 * static_cast<double>(rng.next_below(1000));
    queue.push(t, next_key);
    ref.emplace(t, next_key);
    ++next_key;
  }
  for (int i = 0; i < 200; ++i) {
    const double t = 1e6 + 1e-3 * static_cast<double>(rng.next_below(500));
    queue.push(t, next_key);
    ref.emplace(t, next_key);
    ++next_key;
  }
  // Drain the near half, feeding more far-future events as we go.
  for (int i = 0; i < 500; ++i) {
    pop_both(queue, ref, static_cast<std::size_t>(i));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    if (i % 7 == 0) {
      const double t = 2e6 + static_cast<double>(i);
      queue.push(t, next_key);
      ref.emplace(t, next_key);
      ++next_key;
    }
  }
  drain_both(queue, ref);
}

// Degenerate overflow where every deferred event has the same timestamp:
// rewindow()'s width derivation collapses to the unit-width fallback, which
// must still pop in key order.
TEST(CalendarQueue, AllEqualOverflowFallsBackToUnitWidth) {
  util::Rng rng(7);
  CalendarQueue queue(64);
  RefHeap ref;
  queue.push(0.0, 0);
  ref.emplace(0.0, 0);
  std::vector<std::uint64_t> keys(2000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i + 1;
  std::shuffle(keys.begin(), keys.end(), rng);
  for (const auto key : keys) {
    queue.push(1e9, key);
    ref.emplace(1e9, key);
  }
  drain_both(queue, ref);
}

// An overflow holding only infinite times has no finite rung to build
// (inf - inf is NaN, so every event routes back to the overflow).  The
// rewindow must fail loudly instead of leaving prepare() to loop forever —
// the shape a rebuild schedule with a failure at t = inf used to reach.
TEST(CalendarQueue, InfiniteEventTimeFailsInsteadOfSpinning) {
  CalendarQueue queue(64);
  queue.push(std::numeric_limits<double>::infinity(), 1);
  EXPECT_THROW(static_cast<void>(queue.top()), util::StateError);
}

// Regression: a rewindow driven by a lone far-future event (a scheduled
// retry) raises rung_start past the drain frontier; later pushes that are
// monotone w.r.t. the last pop but BELOW the new rung start must still pop
// before the rung.  This is exactly the rebuild control plane's shape: a
// dense batch drains, a deadline check peeks top() (rewindowing onto the
// lone retry), and admit() then seeds a fresh batch at the paused `now`.
// Before the fix these pushes hit a negative-offset size_t cast (UB) and
// were misrouted to the overflow, popping AFTER the retry.
TEST(CalendarQueue, PushBelowRewindowedRungStillPopsInOrder) {
  CalendarQueue queue(64);
  RefHeap ref;
  std::uint64_t next_key = 0;
  // Dense batch near t=0 plus one retry far beyond any rung it could span.
  for (int i = 0; i < 200; ++i) {
    const double t = 1e-3 * static_cast<double>(i);
    queue.push(t, next_key);
    ref.emplace(t, next_key);
    ++next_key;
  }
  const double retry_t = 5e5;
  queue.push(retry_t, next_key);
  ref.emplace(retry_t, next_key);
  ++next_key;
  // Drain the dense batch completely; only the retry remains.
  for (int i = 0; i < 200; ++i) {
    pop_both(queue, ref, static_cast<std::size_t>(i));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  // The deadline check: top() rewindows, so rung_start_ jumps to retry_t —
  // far past the drain frontier (~0.2).
  EXPECT_EQ(queue.top().time, retry_t);
  // Admit new work in the gap (monotone: above the last pop, below the
  // rung), interleaving pops so the live drain heap is exercised too.
  for (int i = 0; i < 64; ++i) {
    const double t = 1.0 + 0.5 * static_cast<double>(i);
    queue.push(t, next_key);
    ref.emplace(t, next_key);
    ++next_key;
    if (i % 4 == 3) {
      pop_both(queue, ref, static_cast<std::size_t>(200 + i));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
  drain_both(queue, ref);
}

// Same gap, repeated: every rewindow onto a sparse far-future tail is
// followed by another burst of sub-rung pushes, so the clamp-to-bucket-0
// path and the overflow path keep alternating.
TEST(CalendarQueue, RepeatedRewindowGapCyclesMatchHeap) {
  util::Rng rng(271);
  CalendarQueue queue(128);
  RefHeap ref;
  std::uint64_t next_key = 0;
  double base = 0.0;
  queue.push(base, next_key);
  ref.emplace(base, next_key);
  ++next_key;
  for (int cycle = 0; cycle < 6; ++cycle) {
    // One lone event an epoch ahead of everything pushed so far.
    const double far = base + 1e6;
    queue.push(far, next_key);
    ref.emplace(far, next_key);
    ++next_key;
    // Drain to the lone event (forcing the rewindow onto it)...
    while (ref.size() > 1) {
      pop_both(queue, ref, ref.size());
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    EXPECT_EQ(queue.top().time, far);
    // ...then admit a dense burst in the gap below the rewindowed rung.
    const double now = base;
    for (int i = 0; i < 100; ++i) {
      const double t =
          now + 1.0 + 0.25 * static_cast<double>(rng.next_below(1000));
      queue.push(t, next_key);
      ref.emplace(t, next_key);
      ++next_key;
    }
    base = far;
  }
  drain_both(queue, ref);
}

// --- quantization boundaries --------------------------------------------

// Times sitting exactly on bucket-boundary multiples stress the floor
// routing: an event must never land "behind" an equal-time event in a
// later bucket.  Every time here is an exact power-of-two multiple so the
// floor arithmetic has no rounding slack.
TEST(CalendarQueue, BoundaryTimesRouteConsistently) {
  util::Rng rng(1234);
  CalendarQueue queue(256);
  RefHeap ref;
  std::uint64_t next_key = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 1024; ++i) {
      const double t = 0.0078125 * static_cast<double>(i);  // 1/128 grid
      queue.push(t, next_key);
      ref.emplace(t, next_key);
      ++next_key;
    }
  }
  // Interleave pops and boundary-time pushes (strictly after last pop).
  for (int i = 0; i < 2048; ++i) {
    const double now = ref.top().first;
    pop_both(queue, ref, static_cast<std::size_t>(i));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    if (i % 3 == 0) {
      const double t =
          now + 0.0078125 * static_cast<double>(1 + rng.next_below(512));
      queue.push(t, next_key);
      ref.emplace(t, next_key);
      ++next_key;
    }
  }
  drain_both(queue, ref);
}

// --- reset via move assignment ------------------------------------------

// cancel_all() in the batch driver resets with `queue_ = CalendarQueue{}`;
// the moved-to queue must be empty and fully reusable.
TEST(CalendarQueue, MoveAssignResetsAndStaysUsable) {
  CalendarQueue queue(128);
  queue.push(1.0, 1);
  queue.push(2.0, 2);
  EXPECT_EQ(queue.size(), 2u);
  queue = CalendarQueue{};
  EXPECT_TRUE(queue.empty());
  queue.push(0.5, 9);
  ASSERT_EQ(queue.size(), 1u);
  const auto entry = queue.pop();
  EXPECT_EQ(entry.time, 0.5);
  EXPECT_EQ(entry.key, 9u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace car
