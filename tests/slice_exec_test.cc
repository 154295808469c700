// Differential tests for slice-pipelined execution: a sliced run must be
// observationally identical to the chunk-granular run — same recovered
// bytes, same traffic accounting, same per-link byte totals — for every
// slice size, including sizes that do not divide the chunk, and under
// injected faults.  Only *timing* may differ (pipelining shrinks the
// makespan); bytes never do.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "inject/scenario.h"
#include "recovery/balancer.h"
#include "recovery/scheduler.h"
#include "recovery/slice.h"
#include "util/buffer_pool.h"

namespace car {
namespace {

using emul::Cluster;
using emul::EmulConfig;
using emul::ExecutionReport;

constexpr std::uint64_t kOddChunk = 96 * 1024 + 7;  // no slice size divides it

EmulConfig virtual_config() {
  EmulConfig cfg;
  cfg.node_bps = 200e6;
  cfg.oversubscription = 4.0;
  cfg.page_bytes = 16 * 1024;
  return cfg;
}

/// Everything one emulated recovery produced that slicing must not change.
struct Observed {
  ExecutionReport report;
  std::vector<rs::Chunk> recovered;           // lost chunks, in census order
  std::vector<std::uint64_t> per_link_bytes;  // every link's transmit total
  util::BufferPool::Stats pool;
};

/// Build a cluster from (cfg_index, seed), fail a node, run the CAR plan —
/// sliced onto `slice_size` when > 0, chunk-granular otherwise — and return
/// every observable output.
Observed run_emul(int cfg_index, std::uint64_t seed, std::uint64_t chunk,
                  std::uint64_t slice_size, std::size_t window = 0,
                  std::size_t stripes = 6) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const rs::Code code(cfg.k, cfg.m);
  Cluster cluster(cfg.topology(), virtual_config());
  util::Rng data_rng(seed + 1);
  const auto originals = cluster.populate(placement, code, chunk, data_rng);
  const auto scenario = cluster::inject_random_failure(placement, data_rng);
  cluster.erase_node(scenario.failed_node);

  const auto censuses = recovery::build_censuses(placement, scenario);
  const auto balanced = recovery::balance_greedy(placement, censuses, {50});
  auto plan = recovery::build_car_plan(placement, code, balanced.solutions,
                                       chunk, scenario.failed_node);
  if (window > 0) plan = recovery::schedule_windowed(plan, window);

  Observed out;
  out.report = slice_size > 0
                   ? cluster.execute(recovery::slice_plan(plan, slice_size))
                   : cluster.execute(plan);

  for (const auto& lost : scenario.lost) {
    const auto* rec = cluster.find_chunk(scenario.failed_node, lost.stripe,
                                         lost.chunk_index);
    EXPECT_NE(rec, nullptr);
    EXPECT_EQ(*rec, originals[lost.stripe][lost.chunk_index])
        << "stripe " << lost.stripe << " chunk " << lost.chunk_index
        << " slice_size " << slice_size;
    out.recovered.push_back(rec != nullptr ? *rec : rs::Chunk{});
  }
  const auto& topo = cfg.topology();
  for (cluster::NodeId n = 0; n < topo.num_nodes(); ++n) {
    out.per_link_bytes.push_back(cluster.node_up_link(n).bytes_transmitted());
    out.per_link_bytes.push_back(
        cluster.node_down_link(n).bytes_transmitted());
  }
  for (cluster::RackId r = 0; r < topo.num_racks(); ++r) {
    out.per_link_bytes.push_back(cluster.rack_up_link(r).bytes_transmitted());
    out.per_link_bytes.push_back(
        cluster.rack_down_link(r).bytes_transmitted());
  }
  out.pool = cluster.buffer_pool().stats();
  return out;
}

void expect_same_bytes(const Observed& sliced, const Observed& base,
                       std::uint64_t slice_size) {
  ASSERT_EQ(sliced.recovered.size(), base.recovered.size());
  for (std::size_t i = 0; i < base.recovered.size(); ++i) {
    EXPECT_EQ(sliced.recovered[i], base.recovered[i])
        << "recovered chunk " << i << " differs at slice_size " << slice_size;
  }
  EXPECT_EQ(sliced.report.cross_rack_bytes, base.report.cross_rack_bytes);
  EXPECT_EQ(sliced.report.intra_rack_bytes, base.report.intra_rack_bytes);
  EXPECT_EQ(sliced.report.per_rack_cross_bytes,
            base.report.per_rack_cross_bytes);
  EXPECT_EQ(sliced.per_link_bytes, base.per_link_bytes)
      << "per-link byte totals differ at slice_size " << slice_size;
}

// --- randomized differential: sliced == unsliced, byte for byte ----------

class SliceDifferential
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SliceDifferential, EverySliceSizeMatchesChunkGranularExecution) {
  const auto [cfg_index, seed] = GetParam();
  const auto base = run_emul(cfg_index, seed, kOddChunk, 0);
  // The ISSUE's grid: 1 KiB, 64 KiB, chunk_size, chunk_size + 1 — the last
  // two are degenerate single-slice lowerings.
  for (const std::uint64_t slice :
       {std::uint64_t{1024}, std::uint64_t{64 * 1024}, kOddChunk,
        kOddChunk + 1}) {
    const auto sliced = run_emul(cfg_index, seed, kOddChunk, slice);
    expect_same_bytes(sliced, base, slice);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigsAndSeeds, SliceDifferential,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(101u, 202u)));

TEST(SliceDifferential, WindowedSchedulesStayByteIdenticalToo) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}}) {
    const auto base = run_emul(0, 77, kOddChunk, 0, window);
    for (const std::uint64_t slice : {std::uint64_t{8 * 1024}, kOddChunk}) {
      const auto sliced = run_emul(0, 77, kOddChunk, slice, window);
      expect_same_bytes(sliced, base, slice);
    }
  }
}

TEST(SliceDifferential, DegenerateSliceReproducesTimingExactly) {
  // slice_size >= chunk_size is the *same computation*: even the virtual
  // makespan must match bit for bit.
  const auto base = run_emul(1, 404, 64 * 1024, 0);
  const auto degenerate = run_emul(1, 404, 64 * 1024, 64 * 1024);
  EXPECT_EQ(degenerate.report.wall_s, base.report.wall_s);
  EXPECT_EQ(degenerate.report.compute_s, base.report.compute_s);
}

TEST(SlicePipelining, SlicedMakespanNeverExceedsUnslicedOnAWindowedPlan) {
  // With one stripe in flight, chunk-granular execution serialises
  // transfer -> aggregate -> ship -> combine; slicing overlaps the stages.
  const auto base = run_emul(1, 515, 1 << 20, 0, 1, 4);
  const auto sliced = run_emul(1, 515, 1 << 20, 64 * 1024, 1, 4);
  EXPECT_LE(sliced.report.wall_s, base.report.wall_s * (1.0 + 1e-9));
  expect_same_bytes(sliced, base, 64 * 1024);
}

// --- scheduler interaction: the pool's high-water bound ------------------

TEST(BufferPoolInteraction, StagingHighWaterStaysUnderWindowTimesStripe) {
  // Staging leases live only while a slice executes; with `window` stripes
  // in flight the peak staging footprint must stay under
  // window * k * chunk_size (it is far smaller — one slice per in-flight
  // step — but the scheduler-level bound is the contract).
  const std::size_t window = 2;
  const std::uint64_t chunk = 256 * 1024;
  const auto cfg = cluster::paper_configs()[0];
  const auto sliced = run_emul(0, 909, chunk, 16 * 1024, window);
  EXPECT_GT(sliced.pool.staging_high_water_bytes, 0u);
  EXPECT_LE(sliced.pool.staging_high_water_bytes,
            static_cast<std::uint64_t>(window) * cfg.k * chunk);
  // The unified mark additionally folds in the long-lived store buffers
  // (take()/recycle() regime), so it dominates the staging mark.
  EXPECT_GE(sliced.pool.high_water_bytes, sliced.pool.staging_high_water_bytes);
}

TEST(BufferPoolInteraction, SteadyStateExecutionHitsTheFreelist) {
  // Across many slices the pool must serve almost every checkout from the
  // freelists — the zero-allocation-per-slice property.
  const auto sliced = run_emul(0, 303, 256 * 1024, 8 * 1024);
  ASSERT_GT(sliced.pool.acquires, 100u);
  EXPECT_GT(sliced.pool.freelist_hits,
            (sliced.pool.acquires + sliced.pool.takes) * 8 / 10);
}

// --- fault scenarios: slicing under drops/corruption/crashes -------------

class CannedScenarioSliced : public ::testing::TestWithParam<std::string> {};

TEST_P(CannedScenarioSliced, RecoversBitExactlyAtEverySliceSize) {
  for (const std::uint64_t slice_bytes :
       {std::uint64_t{1024}, std::uint64_t{16 * 1024}}) {
    auto scenario = inject::canned_scenario(GetParam());
    scenario.slice_bytes = slice_bytes;
    const auto outcome = inject::run_scenario(scenario);
    EXPECT_TRUE(outcome.bit_exact)
        << GetParam() << " slice_bytes=" << slice_bytes << ": "
        << outcome.chunks_verified << "/" << outcome.chunks_expected;
    EXPECT_GT(outcome.chunks_expected, 0u);
  }
}

TEST_P(CannedScenarioSliced, TrafficTotalsMatchChunkGranularRun) {
  auto base = inject::canned_scenario(GetParam());
  if (!base.faults.node_crashes.empty()) {
    // A crash cancels different in-flight work at different granularities,
    // so delivered-byte totals legitimately differ; bit-exactness (above)
    // is the invariant there.
    GTEST_SKIP() << "crash scenarios compare recovered bytes only";
  }
  const auto unsliced = inject::run_scenario(base);
  for (const std::uint64_t slice_bytes :
       {std::uint64_t{1024}, std::uint64_t{16 * 1024}}) {
    auto scenario = inject::canned_scenario(GetParam());
    scenario.slice_bytes = slice_bytes;
    const auto sliced = inject::run_scenario(scenario);
    EXPECT_EQ(sliced.run.report.cross_rack_bytes,
              unsliced.run.report.cross_rack_bytes)
        << GetParam() << " slice_bytes=" << slice_bytes;
    EXPECT_EQ(sliced.run.report.intra_rack_bytes,
              unsliced.run.report.intra_rack_bytes);
    EXPECT_EQ(sliced.run.report.per_rack_cross_bytes,
              unsliced.run.report.per_rack_cross_bytes);
  }
}

TEST_P(CannedScenarioSliced, SameSeedSlicedLogsAreByteIdentical) {
  auto scenario = inject::canned_scenario(GetParam());
  scenario.slice_bytes = 16 * 1024;
  const auto a = inject::run_scenario(scenario);
  const auto b = inject::run_scenario(scenario);
  EXPECT_EQ(a.run.log.to_json(), b.run.log.to_json());
  EXPECT_EQ(a.run.report.wall_s, b.run.report.wall_s);
}

INSTANTIATE_TEST_SUITE_P(AllCanned, CannedScenarioSliced,
                         ::testing::ValuesIn(inject::canned_scenario_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(InjectSliced, DegenerateSliceReproducesTheChunkGranularLog) {
  // slice_bytes >= chunk_bytes must yield the byte-identical EventLog the
  // chunk-granular engine writes — the two paths are one code path.
  auto base = inject::canned_scenario("link-flap");
  const auto unsliced = inject::run_scenario(base);
  auto degenerate = base;
  degenerate.slice_bytes = base.chunk_bytes;
  const auto sliced = inject::run_scenario(degenerate);
  EXPECT_EQ(sliced.run.log.to_json(), unsliced.run.log.to_json());
}

}  // namespace
}  // namespace car
