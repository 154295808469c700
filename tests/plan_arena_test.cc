// PlanArena differential tests: the columnar arena must be the *same
// function* as the materialised SlicePlan lowering of slice_oracle.h
// (bit-equal steps, info, outputs, and byte accounting), and execute_arena
// must reproduce the reference replay (tests/reference_replay.h) — same
// traffic totals, same per-link state, and the same deterministic virtual
// timeline — while recovering every chunk bit-exactly, for every shard
// count, under metadata-only payloads, on windowed (cross-stripe)
// schedules, with loopback transfers, and with a ragged last slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/scheduler.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/rng.h"

#include "reference_replay.h"
#include "slice_oracle.h"

namespace car {
namespace {

using emul::ArenaExecOptions;
using emul::Cluster;
using emul::EmulConfig;
using emul::ExecutionReport;
using recovery::PlanArena;
using reference::expect_step_equal;

constexpr std::uint64_t kOddChunk = 96 * 1024 + 7;  // no slice size divides it

EmulConfig virtual_config() {
  EmulConfig cfg;
  cfg.node_bps = 200e6;
  cfg.oversubscription = 4.0;
  cfg.page_bytes = 16 * 1024;
  return cfg;
}

/// Seeded CAR plan on a paper config, plus everything needed to execute it.
struct Fixture {
  cluster::Placement placement;
  cluster::FailureScenario failure;
  recovery::RecoveryPlan plan;
  rs::Code code;
};

Fixture make_fixture(int cfg_index, std::uint64_t seed, std::uint64_t chunk,
                     std::size_t window = 0, std::size_t stripes = 6) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  auto failure = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {failure.failed_node}));
  const auto balanced = recovery::balance_multi(placement, censuses, 50);
  rs::Code code(cfg.k, cfg.m);
  auto plan = recovery::build_multi_car_plan(placement, code, balanced.solutions,
                                             chunk, failure.failed_node);
  if (window > 0) plan = recovery::schedule_windowed(plan, window);
  return {std::move(placement), std::move(failure), std::move(plan),
          std::move(code)};
}

// --- lowering differential: arena == slice_plan, field for field ---------

TEST(PlanArenaLowering, MatchesSlicePlanBitForBit) {
  for (const int cfg_index : {0, 1, 2}) {
    const auto fx = make_fixture(cfg_index, 101 + cfg_index, kOddChunk);
    for (const std::uint64_t slice :
         {std::uint64_t{1024}, std::uint64_t{64 * 1024}, kOddChunk,
          kOddChunk + 1}) {
      const auto expected = reference::slice_plan(fx.plan, slice);
      const auto arena = PlanArena::build(fx.plan, slice);
      const auto actual = reference::to_slice_plan(arena);

      EXPECT_EQ(actual.replacement, expected.replacement);
      EXPECT_EQ(actual.replacement_rack, expected.replacement_rack);
      EXPECT_EQ(actual.chunk_size, expected.chunk_size);
      EXPECT_EQ(actual.slice_size, expected.slice_size);
      EXPECT_EQ(actual.num_slices, expected.num_slices);
      EXPECT_EQ(actual.num_base_steps, expected.num_base_steps);
      ASSERT_EQ(actual.steps.size(), expected.steps.size());
      ASSERT_EQ(actual.info.size(), expected.info.size());
      for (std::uint64_t id = 0; id < expected.steps.size(); ++id) {
        expect_step_equal(actual.steps[id], expected.steps[id], id);
        EXPECT_EQ(actual.info[id], expected.info[id]) << "info " << id;
        // step()/slice_info() must agree with the bulk materialisation.
        expect_step_equal(reference::step(arena, id), expected.steps[id], id);
        EXPECT_EQ(reference::slice_info(arena, id), expected.info[id]);
      }
      ASSERT_EQ(actual.outputs.size(), expected.outputs.size());
      for (std::size_t i = 0; i < expected.outputs.size(); ++i) {
        EXPECT_EQ(actual.outputs[i].stripe, expected.outputs[i].stripe);
        EXPECT_EQ(actual.outputs[i].chunk_index,
                  expected.outputs[i].chunk_index);
        EXPECT_EQ(actual.outputs[i].step_id, expected.outputs[i].step_id);
      }
      // Accounting mirrors the base plan exactly (slicing never changes
      // byte totals).
      EXPECT_EQ(arena.cross_rack_bytes(), fx.plan.cross_rack_bytes());
      EXPECT_EQ(arena.intra_rack_bytes(), fx.plan.intra_rack_bytes());
      EXPECT_EQ(arena.compute_bytes(), fx.plan.compute_bytes());
      EXPECT_EQ(arena.per_rack_cross_bytes(fx.placement.topology()),
                fx.plan.per_rack_cross_bytes(fx.placement.topology()));
    }
  }
}

TEST(PlanArenaLowering, BuilderPlansAreStripeClosedWindowedOnesAreNot) {
  const auto plain = make_fixture(0, 11, 64 * 1024);
  EXPECT_TRUE(PlanArena::build(plain.plan, 16 * 1024).stripe_closed());

  const auto windowed = make_fixture(0, 11, 64 * 1024, /*window=*/1);
  EXPECT_FALSE(PlanArena::build(windowed.plan, 16 * 1024).stripe_closed());
}

TEST(PlanArenaLowering, RejectsBackwardDependencies) {
  auto fx = make_fixture(0, 13, 64 * 1024);
  // Point an early step at a later one: still a DAG the generic executor
  // could run, but it breaks the forward-dep contract the arena needs to
  // walk steps in id order.
  ASSERT_GE(fx.plan.steps.size(), 2u);
  fx.plan.steps.front().deps.push_back(fx.plan.steps.size() - 1);
  EXPECT_THROW(PlanArena::build(fx.plan, 16 * 1024), util::CheckError);
}

TEST(PlanArenaLowering, RejectsByteContractViolations) {
  auto fx = make_fixture(0, 13, 64 * 1024);
  for (auto& step : fx.plan.steps) {
    if (step.kind == recovery::StepKind::kTransfer) {
      step.bytes += 1;  // no longer chunk_size
      break;
    }
  }
  EXPECT_THROW(PlanArena::build(fx.plan, 16 * 1024), util::CheckError);
}

// --- execution differential: execute_arena == the reference replay -------

struct Observed {
  ExecutionReport report;
  std::vector<rs::Chunk> recovered;
  reference::LinkState links;
};

/// Execute the fixture's plan on a fresh cluster, through the reference
/// replay (options == nullptr; it moves no bytes, so `recovered` stays
/// empty) or through execute_arena.
Observed run_fixture(const Fixture& fx, std::uint64_t slice,
                     const ArenaExecOptions* options,
                     std::uint64_t data_seed = 99) {
  Cluster cluster(fx.placement.topology(), virtual_config());
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  // populate_sampled over every stripe so both engines (and every sampled
  // subset) read identical per-stripe seeded bytes.
  std::span<const cluster::StripeId> to_populate = all;
  if (options != nullptr && options->metadata_only) {
    to_populate = options->sampled_stripes;
  }
  const auto originals = cluster.populate_sampled(
      fx.placement, fx.code, fx.plan.chunk_size, data_seed, to_populate);
  cluster.erase_node(fx.failure.failed_node);

  Observed out;
  const PlanArena arena = PlanArena::build(fx.plan, slice);
  if (options == nullptr) {
    out.report = reference::replay(cluster, arena);
    out.links = reference::link_state(cluster);
    return out;
  }
  out.report = cluster.execute_arena(arena, *options);
  out.links = reference::link_state(cluster);

  for (const auto& output : fx.plan.outputs) {
    const auto it = originals.find(output.stripe);
    if (it == originals.end()) continue;  // unsampled: measured, not stored
    const auto* rec = cluster.find_chunk(fx.failure.failed_node,
                                         output.stripe, output.chunk_index);
    EXPECT_NE(rec, nullptr) << "stripe " << output.stripe;
    EXPECT_EQ(*rec, it->second[output.chunk_index])
        << "stripe " << output.stripe << " chunk " << output.chunk_index;
    out.recovered.push_back(rec != nullptr ? *rec : rs::Chunk{});
  }
  return out;
}

void expect_same_timeline(const Observed& a, const Observed& b) {
  // Bit-equality, not tolerance: the arena's replay pass performs the same
  // reservations in the same order as the reference replay.
  EXPECT_EQ(a.report.wall_s, b.report.wall_s);
  EXPECT_EQ(a.report.compute_s, b.report.compute_s);
  EXPECT_EQ(a.report.replacement_compute_s, b.report.replacement_compute_s);
  EXPECT_EQ(a.report.cross_rack_bytes, b.report.cross_rack_bytes);
  EXPECT_EQ(a.report.intra_rack_bytes, b.report.intra_rack_bytes);
  EXPECT_EQ(a.report.per_rack_cross_bytes, b.report.per_rack_cross_bytes);
}

/// The fixture's plan through the reference replay and through
/// execute_arena (shards 1, real bytes), which must agree bit for bit and
/// recover every lost chunk (checked in run_fixture).
void expect_matches_reference(const Fixture& fx, std::uint64_t slice) {
  const auto base = run_fixture(fx, slice, nullptr);
  ArenaExecOptions options;
  const auto arena = run_fixture(fx, slice, &options);
  ASSERT_GT(base.report.wall_s, 0.0);
  expect_same_timeline(arena, base);
  EXPECT_EQ(arena.links, base.links);
  EXPECT_EQ(arena.recovered.size(), fx.plan.outputs.size());
}

TEST(ExecuteArena, MatchesSlicePlanEngineBitForBit) {
  for (const int cfg_index : {0, 1, 2}) {
    const auto fx = make_fixture(cfg_index, 202 + cfg_index, kOddChunk);
    for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kOddChunk}) {
      SCOPED_TRACE(slice);
      expect_matches_reference(fx, slice);
    }
  }
}

// schedule_windowed chains stripes into lanes: cross-stripe dependencies
// that the builder plans above never carry.
TEST(ExecuteArena, WindowedSchedulesMatchTheReferenceReplay) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}}) {
    const auto fx = make_fixture(1, 808, kOddChunk, window, /*stripes=*/12);
    ASSERT_FALSE(PlanArena::build(fx.plan, kOddChunk).stripe_closed())
        << "window " << window;
    for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kOddChunk}) {
      SCOPED_TRACE(testing::Message() << "window " << window << ", slice "
                                      << slice);
      expect_matches_reference(fx, slice);
    }
  }
}

/// `plan` with a loopback transfer after every transfer: the receiver
/// re-delivers the payload to itself, and the step's consumers wait for the
/// loopback instead.  Step ids stay dense and dependencies forward.
recovery::RecoveryPlan with_loopbacks(const recovery::RecoveryPlan& plan) {
  recovery::RecoveryPlan out = plan;
  out.steps.clear();
  std::vector<std::size_t> renamed(plan.steps.size());
  auto remap = [&](recovery::BufferRef ref) {
    if (ref.kind == recovery::BufferRef::Kind::kStepOutput) {
      ref.step_id = renamed[ref.step_id];
    }
    return ref;
  };
  for (const recovery::PlanStep& step : plan.steps) {
    recovery::PlanStep copy = step;
    copy.id = out.steps.size();
    for (std::size_t& dep : copy.deps) dep = renamed[dep];
    copy.payload = remap(copy.payload);
    for (auto& in : copy.inputs) in.buffer = remap(in.buffer);
    renamed[step.id] = copy.id;
    const bool transfer = copy.kind == recovery::StepKind::kTransfer;
    out.steps.push_back(std::move(copy));
    if (!transfer) continue;
    recovery::PlanStep loop = out.steps.back();
    loop.id = out.steps.size();
    loop.src = loop.dst;
    loop.cross_rack = false;
    loop.deps = {out.steps.back().id};
    renamed[step.id] = loop.id;
    out.steps.push_back(std::move(loop));
  }
  for (auto& output : out.outputs) output.step_id = renamed[output.step_id];
  return out;
}

TEST(ExecuteArena, LoopbackTransfersMatchTheReferenceReplay) {
  const auto original = make_fixture(0, 909, kOddChunk, /*window=*/0,
                                     /*stripes=*/8);
  auto fx = make_fixture(0, 909, kOddChunk, /*window=*/0, /*stripes=*/8);
  fx.plan = with_loopbacks(original.plan);
  ASSERT_GT(fx.plan.steps.size(), original.plan.steps.size());
  for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kOddChunk}) {
    SCOPED_TRACE(slice);
    expect_matches_reference(fx, slice);
  }
  // A loopback moves nothing and takes no time: the makespan and traffic
  // are the plain plan's.
  ArenaExecOptions options;
  const auto looped = run_fixture(fx, 16 * 1024, &options);
  const auto base = run_fixture(original, 16 * 1024, &options);
  expect_same_timeline(looped, base);
  EXPECT_EQ(looped.links, base.links);
}

TEST(ExecuteArena, RaggedLastSliceMatchesTheReferenceReplay) {
  const auto fx = make_fixture(2, 1010, kOddChunk, /*window=*/0,
                               /*stripes=*/10);
  for (const std::uint64_t slice :
       {std::uint64_t{1024}, std::uint64_t{32 * 1024}}) {
    const PlanArena arena = PlanArena::build(fx.plan, slice);
    ASSERT_LT(arena.slice_length(arena.num_slices() - 1), arena.slice_size())
        << slice;
    SCOPED_TRACE(slice);
    expect_matches_reference(fx, slice);
  }
}

TEST(ExecuteArena, TimelineIsInvariantInShardCount) {
  const auto fx = make_fixture(1, 303, kOddChunk, /*window=*/0,
                               /*stripes=*/12);
  ArenaExecOptions one;
  const auto base = run_fixture(fx, 16 * 1024, &one);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    ArenaExecOptions options;
    options.shards = shards;
    const auto sharded = run_fixture(fx, 16 * 1024, &options);
    expect_same_timeline(sharded, base);
    EXPECT_EQ(sharded.links, base.links);
    ASSERT_EQ(sharded.recovered.size(), base.recovered.size());
    for (std::size_t i = 0; i < base.recovered.size(); ++i) {
      EXPECT_EQ(sharded.recovered[i], base.recovered[i]);
    }
  }
}

TEST(ExecuteArena, ShardedExecutionRequiresStripeClosedPlans) {
  // A window of 1 serialises scheduling across stripes, so as soon as the
  // failure touches >= 2 stripes the plan carries cross-stripe deps.  Scan a
  // few seeds for such a fixture instead of pinning one seed's RNG stream.
  for (const std::uint64_t seed : {17, 18, 19, 20, 21}) {
    const auto fx = make_fixture(0, seed, 64 * 1024, /*window=*/1,
                                 /*stripes=*/12);
    const auto arena = PlanArena::build(fx.plan, 16 * 1024);
    if (arena.stripe_closed()) continue;
    Cluster cluster(fx.placement.topology(), virtual_config());
    util::Rng data_rng(18);
    cluster.populate(fx.placement, fx.code, fx.plan.chunk_size, data_rng);
    cluster.erase_node(fx.failure.failed_node);
    ArenaExecOptions options;
    options.shards = 2;
    EXPECT_THROW(cluster.execute_arena(arena, options), util::CheckError);
    return;
  }
  FAIL() << "no seed produced a plan with cross-stripe deps";
}

TEST(ExecuteArena, MetadataModeKeepsTheExactTimelineAndVerifiesSamples) {
  const auto fx = make_fixture(2, 404, kOddChunk, /*window=*/0,
                               /*stripes=*/10);
  ArenaExecOptions real;
  const auto base = run_fixture(fx, 16 * 1024, &real);

  // Sample two recovered stripes; everything else is metadata-only.
  std::vector<cluster::StripeId> sampled;
  for (const auto& out : fx.plan.outputs) {
    if (sampled.size() >= 2) break;
    if (std::find(sampled.begin(), sampled.end(), out.stripe) ==
        sampled.end()) {
      sampled.push_back(out.stripe);
    }
  }
  ASSERT_EQ(sampled.size(), 2u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ArenaExecOptions options;
    options.shards = shards;
    options.metadata_only = true;
    options.sampled_stripes = sampled;
    const auto metadata = run_fixture(fx, 16 * 1024, &options);
    // Identical virtual timeline and byte accounting — payloads don't
    // change what is *measured* ...
    expect_same_timeline(metadata, base);
    // ... and the sampled stripes still carried real bytes, verified
    // bit-exactly inside run_fixture (recovered only holds sampled ones).
    EXPECT_EQ(metadata.recovered.size(), sampled.size());
  }
}

// --- buffer sharing: transfers share, computes allocate -------------------

/// Populate every stripe of the fixture with seeded bytes and erase the
/// failed node, ready for a real-byte arena run.
std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>> populate_all(
    Cluster& cluster, const Fixture& fx) {
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  auto originals = cluster.populate_sampled(fx.placement, fx.code,
                                            fx.plan.chunk_size, 99, all);
  cluster.erase_node(fx.failure.failed_node);
  return originals;
}

TEST(ExecuteArenaSharing, ErasingASourceLeavesEveryReceiverIntact) {
  const auto fx = make_fixture(1, 505, kOddChunk, /*window=*/0,
                               /*stripes=*/12);
  Cluster cluster(fx.placement.topology(), virtual_config());
  const auto originals = populate_all(cluster, fx);
  ArenaExecOptions options;
  options.shards = 2;
  (void)cluster.execute_arena(PlanArena::build(fx.plan, 16 * 1024), options);

  std::set<cluster::NodeId> erased;
  std::size_t checked = 0;
  for (const auto& step : fx.plan.steps) {
    if (step.kind != recovery::StepKind::kTransfer || step.src == step.dst ||
        erased.contains(step.dst)) {
      continue;
    }
    const rs::Chunk* received = cluster.find_buffer(step.dst, step.payload);
    ASSERT_NE(received, nullptr) << "step " << step.id;
    const rs::Chunk before = *received;
    cluster.erase_node(step.src);
    erased.insert(step.src);
    EXPECT_EQ(cluster.find_buffer(step.src, step.payload), nullptr);
    received = cluster.find_buffer(step.dst, step.payload);
    ASSERT_NE(received, nullptr) << "step " << step.id;
    EXPECT_EQ(*received, before) << "step " << step.id;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  ASSERT_FALSE(erased.contains(fx.failure.failed_node));
  for (const auto& out : fx.plan.outputs) {
    const auto* rec = cluster.find_chunk(fx.failure.failed_node, out.stripe,
                                         out.chunk_index);
    ASSERT_NE(rec, nullptr) << "stripe " << out.stripe;
    EXPECT_EQ(*rec, originals.at(out.stripe)[out.chunk_index]);
  }
}

TEST(ExecuteArenaSharing, WritingASharedBufferCopiesItFirst) {
  const auto fx = make_fixture(0, 606, kOddChunk);
  Cluster cluster(fx.placement.topology(), virtual_config());
  const auto originals = populate_all(cluster, fx);
  (void)cluster.execute_arena(PlanArena::build(fx.plan, 16 * 1024));

  const auto transfer = std::find_if(
      fx.plan.steps.begin(), fx.plan.steps.end(), [](const auto& step) {
        return step.kind == recovery::StepKind::kTransfer &&
               step.src != step.dst;
      });
  ASSERT_NE(transfer, fx.plan.steps.end());
  const rs::Chunk* source = cluster.find_buffer(transfer->src,
                                                transfer->payload);
  ASSERT_NE(source, nullptr);
  // The receiver holds the source's very buffer ...
  EXPECT_EQ(cluster.find_buffer(transfer->dst, transfer->payload), source);
  const rs::Chunk source_bytes = *source;

  // ... until it writes: then it gets its own copy, and the source keeps
  // its bytes.
  const std::vector<std::uint8_t> patch(16, 0x5A);
  std::ranges::copy(patch, cluster
                               .write_buffer_range(transfer->dst,
                                                   transfer->payload, kOddChunk,
                                                   8, patch.size())
                               .begin());
  const rs::Chunk* written = cluster.find_buffer(transfer->dst,
                                                 transfer->payload);
  ASSERT_NE(written, nullptr);
  EXPECT_NE(written, cluster.find_buffer(transfer->src, transfer->payload));
  EXPECT_EQ(*cluster.find_buffer(transfer->src, transfer->payload),
            source_bytes);
  rs::Chunk expected = source_bytes;
  std::copy(patch.begin(), patch.end(), expected.begin() + 8);
  EXPECT_EQ(*written, expected);

  // A published replica shares its step output the same way.
  const cluster::NodeId replacement = fx.plan.replacement;
  const auto& out = fx.plan.outputs.front();
  const rs::Chunk* replica =
      cluster.find_chunk(replacement, out.stripe, out.chunk_index);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(cluster.find_step_output(replacement, out.step_id), replica);
  std::ranges::copy(patch, cluster
                               .write_buffer_range(
                                   replacement,
                                   recovery::BufferRef::step(out.step_id),
                                   kOddChunk, 0, patch.size())
                               .begin());
  cluster.clear_step_outputs();
  replica = cluster.find_chunk(replacement, out.stripe, out.chunk_index);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(*replica, originals.at(out.stripe)[out.chunk_index]);
}

TEST(ExecuteArenaSharing, RunStagesNothingAndTakesOneBufferPerCompute) {
  const auto fx = make_fixture(2, 707, kOddChunk, /*window=*/0,
                               /*stripes=*/10);
  Cluster cluster(fx.placement.topology(), virtual_config());
  (void)populate_all(cluster, fx);
  util::BufferPool& pool = cluster.buffer_pool();
  const auto before = pool.stats();

  ArenaExecOptions options;
  options.shards = 2;
  (void)cluster.execute_arena(PlanArena::build(fx.plan, 16 * 1024), options);
  const auto after = pool.stats();
  const auto computes = static_cast<std::size_t>(std::count_if(
      fx.plan.steps.begin(), fx.plan.steps.end(), [](const auto& step) {
        return step.kind == recovery::StepKind::kCompute;
      }));
  ASSERT_GT(computes, 0u);
  EXPECT_EQ(after.takes - before.takes, computes);
  EXPECT_EQ(after.taken_outstanding_bytes - before.taken_outstanding_bytes,
            computes * util::BufferPool::class_bytes(kOddChunk));

  // Every live buffer goes back exactly once: the populated chunks the
  // failure left, plus one output per compute.  A double recycle would
  // count more, a leaked reference fewer.
  const std::size_t stored = fx.placement.num_stripes() *
                                 (fx.code.k() + fx.code.m()) -
                             fx.failure.lost.size();
  const auto& topo = fx.placement.topology();
  for (cluster::NodeId n = 0; n < topo.num_nodes(); ++n) {
    cluster.erase_node(n);
  }
  const auto end = pool.stats();
  EXPECT_EQ(end.recycles - after.recycles, stored + computes);
  EXPECT_EQ(end.taken_outstanding_bytes, before.taken_outstanding_bytes);
}

// --- rate windows: the windowed integration equals the fast path ---------

TEST(ExecuteArena, UnitRateWindowsMatchTheWindowFreeFastPath) {
  // A link with no rate window drains on a fast path; one with windows
  // integrates the rate profile.  A factor-1 window spanning the whole run
  // must make the two agree bit for bit on a whole plan: the makespan and
  // every link's next-free time and byte total, in the reference replay and
  // in both arena replays.
  constexpr double kHorizon = 1e3;  // virtual seconds, past the makespan
  const auto fx = make_fixture(1, 606, kOddChunk, /*window=*/0,
                               /*stripes=*/12);
  const PlanArena arena = PlanArena::build(fx.plan, 16 * 1024);
  enum class Mode { kReference, kBarrier, kStreamed };
  struct Run {
    double wall_s = 0.0;
    reference::LinkState links;
  };
  auto run = [&](Mode mode, bool windowed) {
    Cluster cluster(fx.placement.topology(), virtual_config());
    (void)populate_all(cluster, fx);
    emul::LinkTable& links = cluster.links();
    if (windowed) {
      for (emul::LinkId l = 0; l < links.size(); ++l) {
        links.add_rate_window(l, 0.0, kHorizon, 1.0);
      }
    }
    Run out;
    if (mode == Mode::kReference) {
      out.wall_s = reference::replay(cluster, arena).wall_s;
    } else if (mode == Mode::kBarrier) {
      out.wall_s = cluster.execute_arena(arena).wall_s;
    } else {
      emul::ArenaStreamFeed feed;
      feed.publish(arena.num_base_steps());
      feed.close();
      out.wall_s = cluster.execute_arena_streaming(arena, {}, feed).wall_s;
    }
    out.links = reference::link_state(cluster);
    return out;
  };
  for (const Mode mode : {Mode::kReference, Mode::kBarrier, Mode::kStreamed}) {
    const Run fast = run(mode, false);
    const Run windowed = run(mode, true);
    ASSERT_GT(fast.wall_s, 0.0);
    ASSERT_LT(fast.wall_s, kHorizon);
    EXPECT_EQ(windowed.wall_s, fast.wall_s) << static_cast<int>(mode);
    EXPECT_EQ(windowed.links.next_free, fast.links.next_free)
        << static_cast<int>(mode);
    EXPECT_EQ(windowed.links.bytes, fast.links.bytes)
        << static_cast<int>(mode);
  }
}

// --- 100k-stripe smoke: the scale path end to end -------------------------

TEST(ExecuteArena, HundredThousandStripeMetadataSmoke) {
  // Uniform 20x20 fabric, single-node failure (a full rack at this size
  // would touch nearly every stripe — the 1M-stripe full-rack point lives
  // in the bench sweep, not in unit tests).
  constexpr std::size_t kStripes = 100000;
  constexpr std::uint64_t kChunk = 64 * 1024;
  cluster::CfsConfig cfg;
  cfg.name = "uniform";
  cfg.nodes_per_rack.assign(20, 20);
  cfg.k = 4;
  cfg.m = 2;
  const rs::Code code(cfg.k, cfg.m);

  Cluster cluster(cfg.topology(), virtual_config());
  util::Rng place_rng(7);
  const auto placement = cluster::Placement::random(
      cfg.topology(), cfg.k, cfg.m, kStripes, place_rng);
  util::Rng fail_rng(8);
  const auto failed =
      cluster::inject_random_failure(placement, fail_rng).failed_node;
  const auto mf = recovery::make_multi_failure(placement, {failed});
  const auto censuses = recovery::build_multi_censuses(placement, mf);
  ASSERT_FALSE(censuses.empty());
  const auto balanced = recovery::balance_multi(placement, censuses, 0);
  const auto plan = recovery::build_multi_car_plan(
      placement, code, balanced.solutions, kChunk, mf.replacement);
  const auto arena = PlanArena::build(plan, kChunk);
  EXPECT_TRUE(arena.stripe_closed());

  std::vector<cluster::StripeId> sampled;
  for (const auto& out : plan.outputs) {
    if (sampled.size() >= 2) break;
    if (std::find(sampled.begin(), sampled.end(), out.stripe) ==
        sampled.end()) {
      sampled.push_back(out.stripe);
    }
  }
  const auto originals =
      cluster.populate_sampled(placement, code, kChunk, 9, sampled);
  cluster.erase_node(failed);

  ArenaExecOptions options;
  options.shards = 4;
  options.metadata_only = true;
  options.sampled_stripes = sampled;
  const auto report = cluster.execute_arena(arena, options);
  EXPECT_GT(report.wall_s, 0.0);
  EXPECT_GT(report.cross_rack_bytes, 0u);

  std::size_t verified = 0;
  for (const auto& out : plan.outputs) {
    const auto it = originals.find(out.stripe);
    if (it == originals.end()) continue;
    const auto* rec =
        cluster.find_chunk(mf.replacement, out.stripe, out.chunk_index);
    verified += rec != nullptr && *rec == it->second[out.chunk_index];
  }
  std::size_t expected = 0;
  for (const auto& out : plan.outputs) {
    expected += originals.contains(out.stripe);
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(verified, expected);
}

}  // namespace
}  // namespace car
