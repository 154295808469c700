// Arena replay differentials: the calendar-queue arena replay, in barrier
// and in streaming (overlapped build/execute) mode, must be observationally
// identical to the reference replay over the arena's materialised slice
// lowering (tests/reference_replay.h) — makespan, compute time, and
// per-rack byte totals bit for bit, with recovered bytes checked against
// the originals — and the two-phase streamed arena build must be bit-equal
// to the one-shot barrier build.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "cluster/placement.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "rs/code.h"
#include "util/check.h"
#include "util/rng.h"

#include "reference_replay.h"
#include "slice_oracle.h"

namespace car {
namespace {

using recovery::MultiFailureScenario;
using recovery::MultiStripeCensus;
using recovery::PlanArena;
using recovery::PlanTemplateCache;

constexpr std::uint64_t kChunk = 48 * 1024 + 5;  // no slice size divides it

struct Fixture {
  cluster::Placement placement;
  rs::Code code;
  MultiFailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;
};

/// A whole-rack failure (capped at the code's tolerance) on a paper config.
Fixture make_fixture(int cfg_index, std::uint64_t seed, std::size_t stripes) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  std::vector<cluster::NodeId> failed;
  for (const auto node : placement.topology().nodes_in_rack(0)) {
    failed.push_back(node);
    if (failed.size() >= cfg.m) break;
  }
  rs::Code code(cfg.k, cfg.m);
  auto scenario = recovery::make_multi_failure(placement, failed);
  auto censuses = recovery::build_multi_censuses(placement, scenario);
  return {std::move(placement), std::move(code), std::move(scenario),
          std::move(censuses)};
}

emul::EmulConfig emul_config() {
  emul::EmulConfig config;
  config.node_bps = 200e6;
  config.oversubscription = 4.0;
  config.page_bytes = 16 * 1024;
  return config;
}

void expect_reports_identical(const emul::ExecutionReport& a,
                              const emul::ExecutionReport& b) {
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.replacement_compute_s, b.replacement_compute_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.intra_rack_bytes, b.intra_rack_bytes);
  EXPECT_EQ(a.per_rack_cross_bytes, b.per_rack_cross_bytes);
}

/// Populate a fresh cluster (all stripes, seeded bytes), fail the scenario
/// nodes, and execute `arena` under `options`.  Every run starts from an
/// identical cluster, so any report divergence is the replay's fault.
emul::ExecutionReport run_barrier(const Fixture& fx, const PlanArena& arena,
                                  const emul::ArenaExecOptions& options) {
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  (void)cluster.populate_sampled(fx.placement, fx.code, kChunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);
  return cluster.execute_arena(arena, options);
}

/// The reference replay on a fresh cluster — the timeline every arena run
/// is compared against.
emul::ExecutionReport run_reference(const Fixture& fx,
                                    const PlanArena& arena) {
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  return reference::replay(cluster, arena);
}

/// Same cluster setup, but through the streaming path: reserve the arena,
/// append stripes on a producer thread that publishes per-stripe
/// watermarks, and run the executor concurrently against the feed.
emul::ExecutionReport run_streamed(
    const Fixture& fx,
    const std::vector<recovery::MultiStripeSolution>& solutions,
    const emul::ArenaExecOptions& options, PlanArena* out_arena) {
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  (void)cluster.populate_sampled(fx.placement, fx.code, kChunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);

  PlanTemplateCache cache;
  auto build = recovery::reserve_multi_car_arena(
      fx.placement, solutions, kChunk, 16 * 1024, fx.scenario.replacement,
      cache);
  emul::ArenaStreamFeed feed;
  std::exception_ptr produce_error;
  std::thread producer([&] {
    const emul::ArenaStreamFeed::ProducerGuard close_feed(feed);
    try {
      recovery::stream_multi_car_arena(
          build, fx.placement, fx.code, solutions, cache,
          [&feed](std::uint64_t rows) { feed.publish(rows); });
    } catch (...) {
      produce_error = std::current_exception();
    }
  });
  emul::ExecutionReport report;
  try {
    report = cluster.execute_arena_streaming(build.arena, options, feed);
  } catch (...) {
    producer.join();
    if (produce_error) std::rethrow_exception(produce_error);
    throw;
  }
  producer.join();
  if (produce_error) std::rethrow_exception(produce_error);
  if (out_arena != nullptr) *out_arena = std::move(build.arena);
  return report;
}

void expect_slice_plans_equal(const PlanArena& a, const PlanArena& b) {
  ASSERT_EQ(a.num_base_steps(), b.num_base_steps());
  EXPECT_EQ(a.stripe_closed(), b.stripe_closed());
  const auto sa = reference::to_slice_plan(a);
  const auto sb = reference::to_slice_plan(b);
  ASSERT_EQ(sa.steps.size(), sb.steps.size());
  for (std::size_t i = 0; i < sa.steps.size(); ++i) {
    const auto& x = sa.steps[i];
    const auto& y = sb.steps[i];
    ASSERT_EQ(x.id, y.id) << "step " << i;
    ASSERT_EQ(x.kind, y.kind) << "step " << i;
    ASSERT_EQ(x.stripe, y.stripe) << "step " << i;
    ASSERT_EQ(x.deps, y.deps) << "step " << i;
    ASSERT_EQ(x.src, y.src) << "step " << i;
    ASSERT_EQ(x.dst, y.dst) << "step " << i;
    ASSERT_EQ(x.payload, y.payload) << "step " << i;
    ASSERT_EQ(x.bytes, y.bytes) << "step " << i;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << "step " << i;
    for (std::size_t j = 0; j < x.inputs.size(); ++j) {
      ASSERT_EQ(x.inputs[j].buffer, y.inputs[j].buffer) << "step " << i;
      ASSERT_EQ(x.inputs[j].coeff, y.inputs[j].coeff) << "step " << i;
    }
  }
  const auto oa = a.outputs();
  const auto ob = b.outputs();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].stripe, ob[i].stripe);
    EXPECT_EQ(oa[i].chunk_index, ob[i].chunk_index);
    EXPECT_EQ(oa[i].step_id, ob[i].step_id);
  }
}

// --- replay equality -----------------------------------------------------

// The barrier and the streamed arena replay both reproduce the reference
// replay's timeline, bit for bit.
TEST(ReplayEngine, BarrierAndStreamedMatchSlicePlanReplay) {
  const auto fx = make_fixture(0, 61, /*stripes=*/24);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  const auto reference = run_reference(fx, arena);
  ASSERT_GT(reference.wall_s, 0.0);

  emul::ArenaExecOptions options;
  options.shards = 2;
  {
    SCOPED_TRACE("barrier");
    expect_reports_identical(reference, run_barrier(fx, arena, options));
  }
  {
    SCOPED_TRACE("streamed");
    expect_reports_identical(
        reference, run_streamed(fx, balanced.solutions, options, nullptr));
  }
}

// replay_shards is a compatibility field: the replay is one sequential
// drain, and any other value is rejected before a step runs.
TEST(ReplayEngine, ReplayShardsOtherThanOneAreRejected) {
  const auto fx = make_fixture(0, 61, /*stripes=*/8);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  emul::ArenaExecOptions options;
  options.replay_shards = 2;
  EXPECT_THROW((void)cluster.execute_arena(arena, options), util::CheckError);
}

// The streamed pipeline (producer appends while the executor replays) must
// report the same timeline as the barrier build, and the arena it leaves
// behind must be bit-equal to the one-shot build.
TEST(ReplayEngine, StreamedPipelineMatchesBarrierBitExactly) {
  const auto fx = make_fixture(1, 17, /*stripes=*/30);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);

  emul::ArenaExecOptions options;
  options.shards = 2;
  const auto reference = run_barrier(fx, arena, options);

  PlanArena streamed;
  const auto report =
      run_streamed(fx, balanced.solutions, options, &streamed);
  expect_reports_identical(reference, report);
  expect_slice_plans_equal(arena, streamed);
}

// Recovered bytes decode bit-exactly through the payload-sharded arena run.
TEST(ReplayEngine, CalendarShardedReplayDecodesBitExact) {
  const auto fx = make_fixture(0, 29, /*stripes=*/18);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);

  emul::Cluster cluster(fx.placement.topology(), emul_config());
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  const auto originals =
      cluster.populate_sampled(fx.placement, fx.code, kChunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);

  emul::ArenaExecOptions options;
  options.shards = 2;
  (void)cluster.execute_arena(arena, options);

  std::size_t verified = 0;
  for (const auto& out : arena.outputs()) {
    const auto it = originals.find(out.stripe);
    ASSERT_NE(it, originals.end());
    const auto* rec = cluster.find_chunk(fx.scenario.replacement, out.stripe,
                                         out.chunk_index);
    ASSERT_NE(rec, nullptr) << "stripe " << out.stripe;
    EXPECT_EQ(*rec, it->second[out.chunk_index])
        << "stripe " << out.stripe << " chunk " << out.chunk_index;
    ++verified;
  }
  EXPECT_EQ(verified, arena.outputs().size());
  EXPECT_GT(verified, 0u);
}

// Regression for the calendar-queue rewindow gap in the streamed pipeline:
// with links slow enough that every dependent lands thousands of virtual
// seconds past t_start — far beyond the initial all-equal-times rung span
// (64 unit-width buckets) — a replay that drains its published t_start
// seeds before the feed closes rewindows onto those far-future dependents
// in the watermark-cap top(), and the NEXT ingestion batch then pushes
// (t_start, sid) seeds BELOW the rewindowed rung start.  Without the
// bucket_index clamp the misroute pops events out of (time, id) order; the
// streamed run must stay bit-identical to the reference replay.
// The producer is throttled so ingestion batches genuinely interleave with
// drains instead of arriving in one lump.
TEST(ReplayEngine, StreamedSlowLinksRewindowGapBitIdentical) {
  const auto fx = make_fixture(0, 53, /*stripes=*/16);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  // Evenly sliced on purpose (unlike kChunk): every sliced step moves the
  // same 16 KiB, so the depth-1 dependents a tick schedules all land in a
  // narrow far-future band.  A ragged remainder slice would drag the
  // band's minimum down to ~the remainder's duration, making the
  // rewindowed rung wide enough to swallow the sub-rung gap — and the
  // misroute this test guards against needs the gap to exceed one bucket.
  constexpr std::uint64_t kEvenChunk = 48 * 1024;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kEvenChunk, 16 * 1024,
      fx.scenario.replacement, cache);

  // Slow enough that every dependent — transfers and computes alike, one
  // 16 KiB slice ~327,680 virtual seconds — lands far beyond the 64-unit
  // rung the all-equal t_start rewindow spans, so the replay's queue
  // genuinely goes rung-empty between ticks.
  auto slow = emul_config();
  slow.node_bps = 0.05;
  slow.virtual_gf_bps = 0.05;

  auto make_cluster = [&] {
    auto cluster =
        std::make_unique<emul::Cluster>(fx.placement.topology(), slow);
    std::vector<cluster::StripeId> all(fx.placement.num_stripes());
    std::iota(all.begin(), all.end(), cluster::StripeId{0});
    (void)cluster->populate_sampled(fx.placement, fx.code, kEvenChunk, 7,
                                    all);
    for (const auto node : fx.scenario.failed_nodes) {
      cluster->erase_node(node);
    }
    return cluster;
  };

  emul::Cluster reference_cluster(fx.placement.topology(), slow);
  const auto expected = reference::replay(reference_cluster, arena);
  ASSERT_GT(expected.wall_s, 0.0);

  // Hand-drive the feed over the fully built arena: publish one stripe per
  // tick, pausing long enough that the replay provably drains the
  // published t_start seeds — and the watermark-cap top() rewindows onto
  // the far-future dependents — before the next stripe's seeds land below
  // the rewindowed rung.  (A real producer builds rows between publishes;
  // pre-building the arena only makes the watermark more conservative.)
  std::vector<std::uint64_t> boundaries;  // end base id of each stripe
  const std::uint64_t n_base = arena.num_base_steps();
  for (std::uint64_t base = 1; base <= n_base; ++base) {
    if (base == n_base || arena.stripe(base) != arena.stripe(base - 1)) {
      boundaries.push_back(base);
    }
  }
  ASSERT_GE(boundaries.size(), 4u);
  emul::ArenaStreamFeed feed;
  std::thread producer([&] {
    for (const std::uint64_t rows : boundaries) {
      feed.publish(rows);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    feed.close();
  });
  emul::ArenaExecOptions options;
  options.shards = 2;
  emul::ExecutionReport report;
  auto cluster = make_cluster();
  try {
    report = cluster->execute_arena_streaming(arena, options, feed);
  } catch (...) {
    producer.join();
    throw;
  }
  producer.join();
  expect_reports_identical(expected, report);
}

// --- streamed build ------------------------------------------------------

// reserve + stream must be the same function as the one-shot barrier build,
// for both strategies, including the template-rdep release along the way.
TEST(ReplayEngine, ReserveStreamBuildBitEqualToBarrierBuild) {
  const auto fx = make_fixture(2, 43, /*stripes=*/40);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  {
    PlanTemplateCache barrier_cache;
    const auto barrier = recovery::build_multi_car_arena(
        fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
        fx.scenario.replacement, barrier_cache);
    PlanTemplateCache stream_cache;
    auto build = recovery::reserve_multi_car_arena(
        fx.placement, balanced.solutions, kChunk, 16 * 1024,
        fx.scenario.replacement, stream_cache);
    std::uint64_t last_watermark = 0;
    recovery::stream_multi_car_arena(build, fx.placement, fx.code,
                                     balanced.solutions, stream_cache,
                                     [&last_watermark](std::uint64_t rows) {
                                       EXPECT_GE(rows, last_watermark);
                                       last_watermark = rows;
                                     });
    EXPECT_EQ(last_watermark, build.arena.num_base_steps());
    expect_slice_plans_equal(barrier, build.arena);
  }
  {
    util::Rng rr_rng(43);
    const auto rr = recovery::plan_multi_rr(fx.placement, fx.censuses, rr_rng);
    PlanTemplateCache barrier_cache;
    const auto barrier = recovery::build_multi_rr_arena(
        fx.placement, fx.code, rr, kChunk, 16 * 1024,
        fx.scenario.replacement, barrier_cache);
    PlanTemplateCache stream_cache;
    auto build = recovery::reserve_multi_rr_arena(
        fx.placement, rr, kChunk, 16 * 1024, fx.scenario.replacement,
        stream_cache);
    recovery::stream_multi_rr_arena(build, fx.placement, fx.code, rr,
                                    stream_cache, {});
    expect_slice_plans_equal(barrier, build.arena);
  }
}

// Building twice from one cache exercises the release-then-reseal path:
// the first build frees each template's reverse-CSR copy at its last use,
// so the second build's cache hits must re-seal transparently and yield a
// bit-equal arena.
TEST(ReplayEngine, TemplateRdepReleaseResealsOnCacheReuse) {
  const auto fx = make_fixture(0, 83, /*stripes=*/32);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto first = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  const auto hits_after_first = cache.stats().hits;
  const auto second = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  // Every template resolves from the cache the second time around.
  EXPECT_GT(cache.stats().hits, hits_after_first);
  expect_slice_plans_equal(first, second);
}

// A producer that dies mid-append must fail the run, not hang it: its
// ProducerGuard closes the feed while the exception unwinds, and the
// executor reports the short watermark.  ctest's per-test timeout turns a
// regression (a feed nobody closes) into a failure instead of a stuck job.
TEST(ReplayEngine, ThrowingStreamProducerFailsTheRunInsteadOfHanging) {
  const auto fx = make_fixture(1, 47, /*stripes=*/30);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  ASSERT_GE(balanced.solutions.size(), 3u);
  emul::Cluster cluster(fx.placement.topology(), emul_config());
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);

  PlanTemplateCache cache;
  auto build = recovery::reserve_multi_car_arena(
      fx.placement, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  emul::ArenaStreamFeed feed;
  std::exception_ptr produce_error;
  std::thread producer([&] {
    try {
      const emul::ArenaStreamFeed::ProducerGuard close_feed(feed);
      std::size_t appended = 0;
      recovery::stream_multi_car_arena(
          build, fx.placement, fx.code, balanced.solutions, cache,
          [&](std::uint64_t rows) {
            feed.publish(rows);
            if (++appended == 2) {
              throw std::runtime_error("producer died mid-append");
            }
          });
    } catch (...) {
      produce_error = std::current_exception();
    }
  });
  emul::ArenaExecOptions options;
  options.shards = 2;
  options.metadata_only = true;
  std::string message;
  try {
    (void)cluster.execute_arena_streaming(build.arena, options, feed);
  } catch (const util::StateError& error) {
    message = error.what();
  }
  producer.join();
  EXPECT_NE(message.find("producer closed before publishing every base step"),
            std::string::npos)
      << "executor error: " << message;
  ASSERT_TRUE(produce_error);
  EXPECT_THROW(std::rethrow_exception(produce_error), std::runtime_error);
}

}  // namespace
}  // namespace car
