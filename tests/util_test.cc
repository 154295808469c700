#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/for_each_shard.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace car::util {
namespace {

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    (void)c;
  }
  Rng d(43);
  EXPECT_NE(Rng(42)(), d());
}

TEST(Rng, NextBelowStaysInRangeAndCoversValues) {
  Rng rng(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.next_in(2, 1), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(4);
  const auto sample = rng.sample_indices(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (auto i : sample) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, FillBytesCoversOddSizes) {
  Rng rng(5);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u}) {
    std::vector<std::uint8_t> buf(n, 0xAA);
    rng.fill_bytes(buf);
    // Not a randomness test — just exercise the tail path.
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double() * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  RunningStats other;
  other.add(3.0);
  s.merge(other);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  const std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(v, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_THROW(mean_of(empty), std::invalid_argument);
}

TEST(TextTable, RendersAlignedAndCsv) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22\n");
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
  TextTable t({"a"});
  t.add_row({"x,y"});
  t.add_row({"quote\"inside"});
  EXPECT_EQ(t.to_csv(), "a\n\"x,y\"\n\"quote\"\"inside\"\n");
}

TEST(BackoffSchedule, GrowsGeometricallyUpToCap) {
  const BackoffSchedule schedule(0.01, 2.0, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(1), 0.01);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(2), 0.02);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(3), 0.04);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(5), 0.16);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(6), 0.25);   // capped
  EXPECT_DOUBLE_EQ(schedule.raw_delay(60), 0.25);  // stays capped, no inf
  EXPECT_DOUBLE_EQ(schedule.raw_delay(100000), 0.25);
}

TEST(BackoffSchedule, ZeroJitterEqualsRawDelay) {
  const BackoffSchedule schedule(0.05, 3.0, 1.0, 0.0);
  Rng rng(7);
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_DOUBLE_EQ(schedule.delay(attempt, rng),
                     schedule.raw_delay(attempt));
  }
}

TEST(BackoffSchedule, JitterStaysWithinBandAndIsSeedDeterministic) {
  const BackoffSchedule schedule(0.1, 2.0, 5.0, 0.25);
  Rng a(99), b(99);
  for (std::size_t attempt = 1; attempt <= 12; ++attempt) {
    const double raw = schedule.raw_delay(attempt);
    const double jittered = schedule.delay(attempt, a);
    EXPECT_GE(jittered, raw * 0.75);
    EXPECT_LE(jittered, raw * 1.25);
    EXPECT_DOUBLE_EQ(jittered, schedule.delay(attempt, b));
  }
}

TEST(BackoffSchedule, RejectsMalformedParametersAndAttemptZero) {
  EXPECT_THROW(BackoffSchedule(0.0, 2.0, 1.0, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 0.5, 1.0, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.5, 2.0, 0.1, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 2.0, 1.0, 1.0), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 2.0, 1.0, -0.1), CheckError);
  const BackoffSchedule schedule(0.1, 2.0, 1.0, 0.0);
  EXPECT_THROW((void)schedule.raw_delay(0), CheckError);
}

TEST(Bytes, FormatsHumanReadableSizes) {
  using namespace literals;
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4_MiB), "4.00 MiB");
  EXPECT_EQ(format_bytes(1536_MiB), "1.50 GiB");
  EXPECT_EQ(format_bytes(2_KiB), "2.00 KiB");
  EXPECT_EQ(format_rate(125e6), "125.0 MB/s");
  EXPECT_EQ(format_rate(2.5e9), "2.50 GB/s");
  EXPECT_EQ(format_rate(500.0), "0.5 KB/s");
}

TEST(ForEachShard, RunsEveryShardOnceWithShardZeroOnTheCaller) {
  std::vector<int> runs(5, 0);
  std::vector<std::thread::id> ran_on(5);
  for_each_shard(5, [&](std::size_t shard) {
    ++runs[shard];
    ran_on[shard] = std::this_thread::get_id();
  });
  EXPECT_EQ(runs, std::vector<int>(5, 1));
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t shard = 1; shard < 5; ++shard) {
    EXPECT_NE(ran_on[shard], std::this_thread::get_id()) << shard;
  }
  for_each_shard(0, [&](std::size_t) { FAIL() << "zero shards ran a body"; });
}

// A shard that throws — on a worker or on the calling thread — must not
// let the caller unwind while another shard is still running: the slower
// shard's write is visible once the catch block runs.
TEST(ForEachShard, JoinsEveryShardBeforeRethrowing) {
  for (const std::size_t thrower : {std::size_t{0}, std::size_t{1}}) {
    bool slow_finished = false;
    try {
      for_each_shard(3, [&](std::size_t shard) {
        if (shard == thrower) throw std::runtime_error("shard failed");
        if (shard == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          slow_finished = true;
        }
      });
      FAIL() << "expected the shard's error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard failed");
      EXPECT_TRUE(slow_finished) << "thrower " << thrower;
    }
  }
}

}  // namespace
}  // namespace car::util
