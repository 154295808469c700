#include "util/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

namespace car::util {
namespace {

TEST(BufferPool, ClassBytesRoundsUpToPowersOfTwo) {
  EXPECT_EQ(BufferPool::class_bytes(1), BufferPool::kMinClassBytes);
  EXPECT_EQ(BufferPool::class_bytes(BufferPool::kMinClassBytes),
            BufferPool::kMinClassBytes);
  EXPECT_EQ(BufferPool::class_bytes(BufferPool::kMinClassBytes + 1),
            2 * BufferPool::kMinClassBytes);
  EXPECT_EQ(BufferPool::class_bytes(65536), 65536u);
  EXPECT_EQ(BufferPool::class_bytes(65537), 131072u);
}

TEST(BufferPool, SteadyStateReusesFreelistCapacity) {
  BufferPool pool;
  pool.recycle(pool.take(64 * 1024));
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> buf = pool.take(64 * 1024);
    std::memset(buf.data(), i, buf.size());
    pool.recycle(std::move(buf));
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.takes, 101u);
  // Every checkout after the first came from the freelist: steady-state
  // execution performs zero heap allocation per step.
  EXPECT_EQ(s.freelist_hits, 100u);
  EXPECT_EQ(s.pooled_bytes, 64u * 1024);
}

TEST(BufferPool, TakeCountsInHighWaterUntilRecycled) {
  BufferPool pool;
  std::vector<std::uint8_t> buf = pool.take(8192);
  EXPECT_EQ(buf.size(), 8192u);
  const auto s = pool.stats();
  EXPECT_EQ(s.takes, 1u);
  EXPECT_EQ(s.taken_outstanding_bytes, 8192u);
  EXPECT_EQ(s.high_water_bytes, 8192u);
  pool.recycle(std::move(buf));
  EXPECT_EQ(pool.stats().pooled_bytes, 8192u);
  EXPECT_EQ(pool.stats().taken_outstanding_bytes, 0u);
  EXPECT_EQ(pool.stats().high_water_bytes, 8192u);  // peak is sticky
  // The next take of the same class is a freelist hit.
  std::vector<std::uint8_t> again = pool.take(5000);
  EXPECT_EQ(again.size(), 5000u);
  EXPECT_GE(again.capacity(), 5000u);
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
}

TEST(BufferPool, RecycleOfForeignBuffersSaturatesTakenAtZero) {
  BufferPool pool;
  // A vector the pool never take()d: the credit saturates instead of
  // wrapping the counter.
  pool.recycle(std::vector<std::uint8_t>(8192));
  EXPECT_EQ(pool.stats().taken_outstanding_bytes, 0u);
  // ...and a real take afterwards still accounts exactly.
  std::vector<std::uint8_t> buf = pool.take(2048);
  EXPECT_EQ(pool.stats().taken_outstanding_bytes, 2048u);
  pool.recycle(std::move(buf));
  EXPECT_EQ(pool.stats().taken_outstanding_bytes, 0u);
}

TEST(BufferPool, RecycleDropsSubMinimumBuffers) {
  BufferPool pool;
  pool.recycle(std::vector<std::uint8_t>(10));
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
}

TEST(BufferPool, HighWaterTracksPeakConcurrentTakes) {
  BufferPool pool;
  {
    std::vector<std::uint8_t> a = pool.take(1024);
    std::vector<std::uint8_t> b = pool.take(1024);
    std::vector<std::uint8_t> c = pool.take(2048);
    EXPECT_EQ(pool.stats().taken_outstanding_bytes, 4096u);
    pool.recycle(std::move(a));
    pool.recycle(std::move(b));
    pool.recycle(std::move(c));
  }
  std::vector<std::uint8_t> d = pool.take(1024);
  EXPECT_EQ(pool.stats().taken_outstanding_bytes, 1024u);
  EXPECT_EQ(pool.stats().high_water_bytes, 4096u);
}

TEST(BufferPool, TrimDropsIdleCapacityKeepsCounters) {
  BufferPool pool;
  pool.recycle(pool.take(32 * 1024));
  EXPECT_EQ(pool.stats().pooled_bytes, 32u * 1024);
  pool.trim();
  const auto s = pool.stats();
  EXPECT_EQ(s.pooled_bytes, 0u);
  EXPECT_EQ(s.takes, 1u);
  EXPECT_EQ(s.high_water_bytes, 32u * 1024);
  // After a trim the next checkout allocates again.
  pool.recycle(pool.take(32 * 1024));
  EXPECT_EQ(pool.stats().freelist_hits, 0u);
}

TEST(BufferPool, MixedClassCheckoutsLandInTheRightFreelists) {
  BufferPool pool;
  pool.recycle(pool.take(1024));
  pool.recycle(pool.take(128 * 1024));
  EXPECT_EQ(pool.stats().pooled_bytes, 1024u + 128 * 1024);
  // A 1 KiB request must not dequeue the 128 KiB buffer.
  std::vector<std::uint8_t> again = pool.take(512);
  EXPECT_EQ(pool.stats().pooled_bytes, 128u * 1024);
}

// TSan-targeted contention stress: many threads hammer a shared pool with
// take/recycle round trips across several size classes.  Under
// -fsanitize=thread this exercises the mu_-guarded freelists and the
// high-water accounting from every interleaving the scheduler produces; the
// post-join assertions prove the counters stayed exact, not just
// data-race-free.
TEST(BufferPoolStress, ConcurrentTakeRecycleAcrossSizeClassesStaysConsistent) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  static constexpr std::size_t kClasses[] = {512, 4096, 16 * 1024, 64 * 1024};
  constexpr int kNumClasses = 4;

  BufferPool pool;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t n = kClasses[(t + i) % kNumClasses];
        // Take/recycle round trip, touched so TSan sees the bytes.
        std::vector<std::uint8_t> buf = pool.take(n);
        ASSERT_EQ(buf.size(), n);
        buf[0] = static_cast<std::uint8_t>(i);
        buf[n - 1] = static_cast<std::uint8_t>(t);
        pool.recycle(std::move(buf));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  const BufferPool::Stats s = pool.stats();
  // Every checkout was returned: nothing outstanding.
  EXPECT_EQ(s.taken_outstanding_bytes, 0u);
  // Counter totals are exact despite the contention.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(s.takes, total);
  EXPECT_EQ(s.recycles, total);
  // At least one largest-class checkout must be visible in the high-water
  // mark.
  EXPECT_GE(s.high_water_bytes, kClasses[kNumClasses - 1]);
  // All returned capacity parked in the freelists (pooled_bytes can exceed
  // the concurrent peak — each size class parks its own buffers — so the
  // bound to check is trim() draining it exactly to zero, with the sticky
  // counters untouched).
  EXPECT_GT(s.pooled_bytes, 0u);
  // Freelist reuse must have kicked in: with 3200 round trips over four
  // size classes, steady state cannot be allocating every time.
  EXPECT_GT(s.freelist_hits, 0u);
  pool.trim();
  const BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.pooled_bytes, 0u);
  EXPECT_EQ(after.high_water_bytes, s.high_water_bytes);
  EXPECT_EQ(after.recycles, s.recycles);
}

}  // namespace
}  // namespace car::util
