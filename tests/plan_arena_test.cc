// PlanArena differential tests: the columnar arena must be the *same
// function* as the SlicePlan lowering (bit-equal steps, info, outputs, and
// byte accounting), and execute_arena must be observationally identical to
// execute(slice_plan(...)) — same recovered bytes, same traffic totals,
// same per-link byte totals, and the same deterministic virtual timeline —
// for every shard count and under metadata-only payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/scheduler.h"
#include "recovery/slice.h"
#include "util/check.h"
#include "util/rng.h"

namespace car {
namespace {

using emul::ArenaExecOptions;
using emul::Cluster;
using emul::EmulConfig;
using emul::ExecutionReport;
using recovery::PlanArena;

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
  const auto censuses = recovery::build_censuses(placement, failure);
  const auto balanced = recovery::balance_greedy(placement, censuses, {50});
  rs::Code code(cfg.k, cfg.m);
  auto plan = recovery::build_car_plan(placement, code, balanced.solutions,
                                       chunk, failure.failed_node);
  if (window > 0) plan = recovery::schedule_windowed(plan, window);
  return {std::move(placement), std::move(failure), std::move(plan),
          std::move(code)};
}

void expect_step_equal(const recovery::PlanStep& a,
                       const recovery::PlanStep& b, std::uint64_t id) {
  EXPECT_EQ(a.id, b.id) << "step " << id;
  EXPECT_EQ(a.kind, b.kind) << "step " << id;
  EXPECT_EQ(a.stripe, b.stripe) << "step " << id;
  EXPECT_EQ(a.deps, b.deps) << "step " << id;
  EXPECT_EQ(a.src, b.src) << "step " << id;
  EXPECT_EQ(a.dst, b.dst) << "step " << id;
  EXPECT_EQ(a.payload, b.payload) << "step " << id;
  EXPECT_EQ(a.cross_rack, b.cross_rack) << "step " << id;
  EXPECT_EQ(a.node, b.node) << "step " << id;
  EXPECT_EQ(a.bytes, b.bytes) << "step " << id;
  ASSERT_EQ(a.inputs.size(), b.inputs.size()) << "step " << id;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i].buffer, b.inputs[i].buffer) << "step " << id;
    EXPECT_EQ(a.inputs[i].coeff, b.inputs[i].coeff) << "step " << id;
  }
}

// --- lowering differential: arena == slice_plan, field for field ---------

TEST(PlanArenaLowering, MatchesSlicePlanBitForBit) {
  for (const int cfg_index : {0, 1, 2}) {
    const auto fx = make_fixture(cfg_index, 101 + cfg_index, kOddChunk);
    for (const std::uint64_t slice :
         {std::uint64_t{1024}, std::uint64_t{64 * 1024}, kOddChunk,
          kOddChunk + 1}) {
      const auto expected = recovery::slice_plan(fx.plan, slice);
      const auto arena = PlanArena::build(fx.plan, slice);
      const auto actual = arena.to_slice_plan();

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
        expect_step_equal(arena.step(id), expected.steps[id], id);
        EXPECT_EQ(arena.slice_info(id), expected.info[id]);
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

// --- execution differential: execute_arena == execute(slice_plan) --------

struct Observed {
  ExecutionReport report;
  std::vector<rs::Chunk> recovered;
  std::vector<std::uint64_t> per_link_bytes;
};

/// Execute the fixture's plan on a fresh cluster, through the classic
/// SlicePlan engine (options == nullptr) or through execute_arena.
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
  if (options == nullptr) {
    out.report = cluster.execute(recovery::slice_plan(fx.plan, slice));
  } else {
    out.report =
        cluster.execute_arena(PlanArena::build(fx.plan, slice), *options);
  }

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
  const auto& topo = fx.placement.topology();
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
  return out;
}

void expect_same_timeline(const Observed& a, const Observed& b) {
  // Bit-equality, not tolerance: the arena's replay pass performs the same
  // reservations in the same order as the SlicePlan engine.
  EXPECT_EQ(a.report.wall_s, b.report.wall_s);
  EXPECT_EQ(a.report.compute_s, b.report.compute_s);
  EXPECT_EQ(a.report.replacement_compute_s, b.report.replacement_compute_s);
  EXPECT_EQ(a.report.cross_rack_bytes, b.report.cross_rack_bytes);
  EXPECT_EQ(a.report.intra_rack_bytes, b.report.intra_rack_bytes);
  EXPECT_EQ(a.report.per_rack_cross_bytes, b.report.per_rack_cross_bytes);
}

TEST(ExecuteArena, MatchesSlicePlanEngineBitForBit) {
  for (const int cfg_index : {0, 1, 2}) {
    const auto fx = make_fixture(cfg_index, 202 + cfg_index, kOddChunk);
    for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kOddChunk}) {
      const auto base = run_fixture(fx, slice, nullptr);
      ArenaExecOptions options;  // shards 1, real bytes
      const auto arena = run_fixture(fx, slice, &options);
      expect_same_timeline(arena, base);
      ASSERT_EQ(arena.recovered.size(), base.recovered.size());
      for (std::size_t i = 0; i < base.recovered.size(); ++i) {
        EXPECT_EQ(arena.recovered[i], base.recovered[i]) << "chunk " << i;
      }
      EXPECT_EQ(arena.per_link_bytes, base.per_link_bytes);
    }
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
    EXPECT_EQ(sharded.per_link_bytes, base.per_link_bytes);
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
