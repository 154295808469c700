// Template-cache differential tests: plans instantiated from cached
// signatures must be the *same function* as the per-stripe oracle
// (plan_oracle.h) — bit-equal RecoveryPlans for every solution source a
// caller builds from, bit-equal arenas (columns, reverse CSR, outputs,
// accounting), a collapsing signature space, canonical decode-coefficient
// memoisation, shard-invariant scans, and real-byte decode through a
// template-cached arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "cluster/placement.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "recovery/exposure.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/scheduler.h"
#include "recovery/weighted.h"
#include "rs/code.h"
#include "util/rng.h"

#include "plan_oracle.h"
#include "slice_oracle.h"

namespace car {
namespace {

using recovery::MultiFailureScenario;
using recovery::MultiStripeCensus;
using recovery::PlanArena;
using recovery::PlanTemplateCache;
using recovery::RecoveryPlan;

constexpr std::uint64_t kChunk = 96 * 1024 + 7;  // no slice size divides it

/// A multi-failure fixture on a paper config: `failed_racks` whole racks
/// when > 0, otherwise `failed_count` random nodes in distinct racks.
struct Fixture {
  cluster::Placement placement;
  rs::Code code;
  MultiFailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;
};

Fixture make_fixture(int cfg_index, std::uint64_t seed, std::size_t stripes,
                     std::size_t failed_racks, std::size_t failed_count) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto& topology = placement.topology();
  std::vector<cluster::NodeId> failed;
  if (failed_racks > 0) {
    for (cluster::RackId r = 0; r < failed_racks; ++r) {
      for (const auto node : topology.nodes_in_rack(r)) {
        failed.push_back(node);
        if (failed.size() >= cfg.m) break;  // keep every stripe decodable
      }
    }
  } else {
    // One node from each of the first `failed_count` racks: distinct racks
    // keep the per-stripe loss within tolerance with high probability at
    // these sizes, and the census builder throws if not.
    for (std::size_t r = 0; r < failed_count; ++r) {
      const auto nodes = topology.nodes_in_rack(r);
      failed.push_back(nodes[seed % nodes.size()]);
    }
  }
  rs::Code code(cfg.k, cfg.m);
  auto scenario = recovery::make_multi_failure(placement, failed);
  auto censuses = recovery::build_multi_censuses(placement, scenario);
  return {std::move(placement), std::move(code), std::move(scenario),
          std::move(censuses)};
}

void expect_plan_equal(const RecoveryPlan& a, const RecoveryPlan& b) {
  EXPECT_EQ(a.replacement, b.replacement);
  EXPECT_EQ(a.replacement_rack, b.replacement_rack);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const auto& x = a.steps[i];
    const auto& y = b.steps[i];
    EXPECT_EQ(x.id, y.id) << "step " << i;
    EXPECT_EQ(x.kind, y.kind) << "step " << i;
    EXPECT_EQ(x.stripe, y.stripe) << "step " << i;
    EXPECT_EQ(x.deps, y.deps) << "step " << i;
    EXPECT_EQ(x.src, y.src) << "step " << i;
    EXPECT_EQ(x.dst, y.dst) << "step " << i;
    EXPECT_EQ(x.payload, y.payload) << "step " << i;
    EXPECT_EQ(x.cross_rack, y.cross_rack) << "step " << i;
    EXPECT_EQ(x.node, y.node) << "step " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "step " << i;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << "step " << i;
    for (std::size_t j = 0; j < x.inputs.size(); ++j) {
      EXPECT_EQ(x.inputs[j].buffer, y.inputs[j].buffer) << "step " << i;
      EXPECT_EQ(x.inputs[j].coeff, y.inputs[j].coeff) << "step " << i;
    }
  }
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i].stripe, b.outputs[i].stripe);
    EXPECT_EQ(a.outputs[i].chunk_index, b.outputs[i].chunk_index);
    EXPECT_EQ(a.outputs[i].step_id, b.outputs[i].step_id);
  }
}

void expect_arena_equal(const PlanArena& a, const PlanArena& b) {
  ASSERT_EQ(a.num_base_steps(), b.num_base_steps());
  EXPECT_EQ(a.stripe_closed(), b.stripe_closed());
  const auto sa = reference::to_slice_plan(a);
  const auto sb = reference::to_slice_plan(b);
  ASSERT_EQ(sa.steps.size(), sb.steps.size());
  for (std::size_t i = 0; i < sa.steps.size(); ++i) {
    const auto& x = sa.steps[i];
    const auto& y = sb.steps[i];
    EXPECT_EQ(x.id, y.id) << "step " << i;
    EXPECT_EQ(x.kind, y.kind) << "step " << i;
    EXPECT_EQ(x.stripe, y.stripe) << "step " << i;
    EXPECT_EQ(x.deps, y.deps) << "step " << i;
    EXPECT_EQ(x.src, y.src) << "step " << i;
    EXPECT_EQ(x.dst, y.dst) << "step " << i;
    EXPECT_EQ(x.payload, y.payload) << "step " << i;
    EXPECT_EQ(x.cross_rack, y.cross_rack) << "step " << i;
    EXPECT_EQ(x.node, y.node) << "step " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "step " << i;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << "step " << i;
    for (std::size_t j = 0; j < x.inputs.size(); ++j) {
      EXPECT_EQ(x.inputs[j].buffer, y.inputs[j].buffer) << "step " << i;
      EXPECT_EQ(x.inputs[j].coeff, y.inputs[j].coeff) << "step " << i;
    }
  }
  // The reverse CSR is instantiated from template-local CSRs on the cached
  // path and counting-sorted on the classic path — they must agree.
  for (std::uint64_t base = 0; base < a.num_base_steps(); ++base) {
    const auto x = a.dependents(base);
    const auto y = b.dependents(base);
    ASSERT_EQ(x.size(), y.size()) << "base " << base;
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin())) << "base " << base;
  }
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    EXPECT_EQ(a.outputs()[i].stripe, b.outputs()[i].stripe);
    EXPECT_EQ(a.outputs()[i].chunk_index, b.outputs()[i].chunk_index);
    EXPECT_EQ(a.outputs()[i].step_id, b.outputs()[i].step_id);
  }
  EXPECT_EQ(a.cross_rack_bytes(), b.cross_rack_bytes());
  EXPECT_EQ(a.intra_rack_bytes(), b.intra_rack_bytes());
  EXPECT_EQ(a.compute_bytes(), b.compute_bytes());
}

// --- cached plans == classic plans, bit for bit --------------------------

TEST(PlanTemplateCache, CarCachedPlanMatchesClassicAcrossConfigs) {
  for (const int cfg_index : {0, 1, 2}) {
    for (const std::uint64_t seed : {11u, 12u}) {
      // Mix of whole-rack and scattered multi-node failures.
      const std::size_t racks = (seed % 2 == 1) ? 1 : 0;
      const std::size_t nodes = racks > 0 ? 0 : 2;
      const auto fx =
          make_fixture(cfg_index, seed, /*stripes=*/40, racks, nodes);
      const auto balanced =
          recovery::balance_multi(fx.placement, fx.censuses);
      const auto classic = reference::build_multi_car_plan(
          fx.placement, fx.code, balanced.solutions, kChunk,
          fx.scenario.replacement);
      PlanTemplateCache cache;
      const auto cached = recovery::build_multi_car_arena(
          fx.placement, fx.code, balanced.solutions, kChunk, kChunk,
          fx.scenario.replacement, cache);
      expect_arena_equal(cached, PlanArena::build(classic, kChunk));
      EXPECT_EQ(cache.stats().hits + cache.stats().misses,
                balanced.solutions.size());
    }
  }
}

TEST(PlanTemplateCache, RrCachedPlanMatchesClassic) {
  for (const int cfg_index : {0, 2}) {
    const auto fx = make_fixture(cfg_index, 21, /*stripes=*/40,
                                 /*failed_racks=*/1, 0);
    util::Rng rr_rng(77);
    const auto solutions =
        recovery::plan_multi_rr(fx.placement, fx.censuses, rr_rng);
    const auto classic = reference::build_multi_rr_plan(
        fx.placement, fx.code, solutions, kChunk, fx.scenario.replacement);
    PlanTemplateCache cache;
    const auto cached = recovery::build_multi_rr_arena(
        fx.placement, fx.code, solutions, kChunk, kChunk,
        fx.scenario.replacement, cache);
    expect_arena_equal(cached, PlanArena::build(classic, kChunk));
  }
}

TEST(PlanTemplateCache, OntoReplacementMatchesClassic) {
  // The rebuild control plane's shape: an explicit replacement that hosts
  // no failed chunk, so fetch positions never resolve to it for free.
  const auto cfg = cluster::paper_configs()[1];
  util::Rng rng(31);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 30, rng);
  const auto& topology = placement.topology();
  std::vector<cluster::NodeId> failed;
  for (const auto node : topology.nodes_in_rack(1)) {
    failed.push_back(node);
    if (failed.size() >= cfg.m) break;
  }
  const cluster::NodeId replacement = topology.nodes_in_rack(0).front();
  const auto scenario =
      recovery::make_multi_failure_onto(placement, failed, replacement);
  const auto censuses = recovery::build_multi_censuses(placement, scenario);
  const auto balanced = recovery::balance_multi(placement, censuses);
  rs::Code code(cfg.k, cfg.m);
  const auto classic = reference::build_multi_car_plan(
      placement, code, balanced.solutions, kChunk, replacement);
  PlanTemplateCache cache;
  const auto cached = recovery::build_multi_car_arena(
      placement, code, balanced.solutions, kChunk, kChunk, replacement, cache);
  expect_arena_equal(cached, PlanArena::build(classic, kChunk));
}

// --- every solution source a caller builds from ---------------------------

/// Warm-cache arenas are lowered on this grid (no slice divides kChunk).
constexpr std::uint64_t kWarmSlice = 16 * 1024;

/// One solution list built three ways: by the per-stripe oracle, by the
/// production builder on a fresh cache, and as an arena off a cache shared
/// across calls.
struct Built {
  RecoveryPlan oracle;
  RecoveryPlan fresh;
  PlanArena warm;
};

Built build_all(const cluster::Placement& placement, const rs::Code& code,
                std::span<const recovery::MultiStripeSolution> solutions,
                cluster::NodeId replacement, PlanTemplateCache& warm) {
  return {reference::build_multi_car_plan(placement, code, solutions, kChunk,
                                          replacement),
          recovery::build_multi_car_plan(placement, code, solutions, kChunk,
                                         replacement),
          recovery::build_multi_car_arena(placement, code, solutions, kChunk,
                                          kWarmSlice, replacement, warm)};
}

Built build_all(const cluster::Placement& placement, const rs::Code& code,
                std::span<const recovery::MultiRrSolution> solutions,
                cluster::NodeId replacement, PlanTemplateCache& warm) {
  return {reference::build_multi_rr_plan(placement, code, solutions, kChunk,
                                         replacement),
          recovery::build_multi_rr_plan(placement, code, solutions, kChunk,
                                        replacement),
          recovery::build_multi_rr_arena(placement, code, solutions, kChunk,
                                         kWarmSlice, replacement, warm)};
}

/// The builders agree with the oracle field for field, and still do once
/// schedule_windowed has serialised the stripes into lanes.
void expect_matches_oracle(const Built& built, const std::string& source) {
  SCOPED_TRACE(source);
  ASSERT_FALSE(built.oracle.steps.empty());
  expect_plan_equal(built.fresh, built.oracle);
  expect_arena_equal(built.warm, PlanArena::build(built.oracle, kWarmSlice));
  for (const std::size_t window : {1u, 3u}) {
    SCOPED_TRACE("schedule_windowed " + std::to_string(window));
    expect_plan_equal(recovery::schedule_windowed(built.fresh, window),
                      recovery::schedule_windowed(built.oracle, window));
  }
}

/// Solutions materialised from one rack set per stripe.
std::vector<recovery::MultiStripeSolution> materialize_all(
    const cluster::Placement& placement,
    std::span<const MultiStripeCensus> censuses,
    std::span<const recovery::RackSet> sets) {
  std::vector<recovery::MultiStripeSolution> solutions;
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    solutions.push_back(
        recovery::materialize_multi(placement, censuses[j], sets[j]));
  }
  return solutions;
}

void expect_every_source_matches(const cluster::Placement& placement,
                                 const rs::Code& code,
                                 const MultiFailureScenario& scenario,
                                 PlanTemplateCache& warm) {
  const auto censuses = recovery::build_multi_censuses(placement, scenario);
  const cluster::NodeId replacement = scenario.replacement;
  for (const std::size_t iterations : {0u, 50u}) {
    const auto balanced =
        recovery::balance_multi(placement, censuses, iterations);
    expect_matches_oracle(
        build_all(placement, code, balanced.solutions, replacement, warm),
        "balance_multi " + std::to_string(iterations));
  }
  // Uneven uplinks, so the weighted pass picks its own rack sets.
  std::vector<double> bandwidth(placement.topology().num_racks());
  for (std::size_t rack = 0; rack < bandwidth.size(); ++rack) {
    bandwidth[rack] = 1.0 + static_cast<double>(rack % 3);
  }
  const auto weighted =
      recovery::balance_weighted(placement, censuses, bandwidth);
  expect_matches_oracle(
      build_all(placement, code, weighted.solutions, replacement, warm),
      "balance_weighted");
  std::vector<recovery::RackSet> defaults;
  for (const auto& census : censuses) {
    defaults.push_back(recovery::default_rack_set(
        census.k, census.replacement_rack, census.surviving.ranked()));
  }
  expect_matches_oracle(
      build_all(placement, code, materialize_all(placement, censuses, defaults),
                replacement, warm),
      "materialize_multi(default_rack_set)");
  util::Rng rr_rng(replacement + 17);
  const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
  expect_matches_oracle(build_all(placement, code, rr, replacement, warm),
                        "plan_multi_rr");
}

TEST(PlanTemplateCache, EverySolutionSourceMatchesOracle) {
  // Whole-rack and scattered multi-node failures on every paper config,
  // one warm cache across all of them (the rebuild control plane's reuse).
  PlanTemplateCache warm;
  for (const int cfg_index : {0, 1, 2}) {
    for (const std::size_t racks : {0u, 1u}) {
      SCOPED_TRACE("cfs" + std::to_string(cfg_index + 1) + " racks " +
                   std::to_string(racks));
      const auto fx = make_fixture(cfg_index, 71 + cfg_index, /*stripes=*/36,
                                   racks, racks > 0 ? 0 : 2);
      expect_every_source_matches(fx.placement, fx.code, fx.scenario, warm);
    }
  }
  EXPECT_GT(warm.stats().hits, 0u);
}

TEST(PlanTemplateCache, OntoReplacementSourcesMatchOracle) {
  // A live replacement that hosts survivors of some stripes: RR reads those
  // in place (the skip mask) and a CAR pick may aggregate on it.
  const auto cfg = cluster::paper_configs()[1];
  util::Rng rng(83);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 40, rng);
  const auto& topology = placement.topology();
  std::vector<cluster::NodeId> failed;
  for (const auto node : topology.nodes_in_rack(2)) {
    failed.push_back(node);
    if (failed.size() >= cfg.m) break;
  }
  const cluster::NodeId replacement = topology.nodes_in_rack(0).front();
  const auto scenario =
      recovery::make_multi_failure_onto(placement, failed, replacement);
  const rs::Code code(cfg.k, cfg.m);
  PlanTemplateCache warm;
  expect_every_source_matches(placement, code, scenario, warm);
}

TEST(PlanTemplateCache, ExhaustiveSolutionsMatchOracle) {
  // balance_exhaustive's optimum on the small instances the ablation runs.
  const auto cfg = cluster::cfs1();
  const rs::Code code(cfg.k, cfg.m);
  PlanTemplateCache warm;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto placement =
        cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 8, rng);
    const auto failure = cluster::inject_random_failure(placement, rng);
    const auto scenario =
        recovery::make_multi_failure(placement, {failure.failed_node});
    const auto censuses = recovery::build_multi_censuses(placement, scenario);
    const auto exact =
        recovery::balance_exhaustive(placement, censuses, 5'000'000);
    ASSERT_TRUE(exact.has_value()) << "seed " << seed;
    expect_matches_oracle(
        build_all(placement, code,
                  materialize_all(placement, censuses, exact->chosen),
                  scenario.replacement, warm),
        "balance_exhaustive seed " + std::to_string(seed));
  }
}

// --- templated arena == classic lowering, including the reverse CSR ------

TEST(PlanTemplateCache, TemplatedCarArenaMatchesClassicLowering) {
  const auto fx =
      make_fixture(1, 41, /*stripes=*/50, /*failed_racks=*/1, 0);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  const auto classic_plan = reference::build_multi_car_plan(
      fx.placement, fx.code, balanced.solutions, kChunk,
      fx.scenario.replacement);
  for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kChunk}) {
    const auto classic = PlanArena::build(classic_plan, slice);
    PlanTemplateCache cache;
    const auto templated = recovery::build_multi_car_arena(
        fx.placement, fx.code, balanced.solutions, kChunk, slice,
        fx.scenario.replacement, cache);
    expect_arena_equal(templated, classic);
  }
}

TEST(PlanTemplateCache, TemplatedRrArenaMatchesClassicLowering) {
  const auto fx =
      make_fixture(0, 43, /*stripes=*/50, /*failed_racks=*/1, 0);
  util::Rng rr_rng(5);
  const auto solutions =
      recovery::plan_multi_rr(fx.placement, fx.censuses, rr_rng);
  const auto classic_plan = reference::build_multi_rr_plan(
      fx.placement, fx.code, solutions, kChunk, fx.scenario.replacement);
  const auto classic = PlanArena::build(classic_plan, 16 * 1024);
  PlanTemplateCache cache;
  const auto templated = recovery::build_multi_rr_arena(
      fx.placement, fx.code, solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  expect_arena_equal(templated, classic);
}

TEST(PlanTemplateCache, TemplatedArenaMatchesClassicLoweringOntoReplacement) {
  // The rebuild coordinator's batch after a second failure: the first
  // failed node is the replacement and its chunks are already recovered
  // onto it, so they survive there — CAR may aggregate on the replacement
  // (its ships are loopbacks) and RR reads them in place (the skip mask).
  const auto cfg = cluster::paper_configs()[1];
  util::Rng rng(89);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 60, rng);
  const auto& topology = placement.topology();
  const cluster::NodeId replacement = topology.nodes_in_rack(0).front();
  const cluster::NodeId second = topology.nodes_in_rack(1).front();
  const auto scenario =
      recovery::make_multi_failure_onto(placement, {second}, replacement);
  const auto censuses = recovery::build_multi_censuses(placement, scenario);
  std::size_t hosted = 0;  // planned stripes with a chunk on the replacement
  for (const auto& census : censuses) {
    const auto hosts = placement.stripe(census.stripe);
    hosted += std::find(hosts.begin(), hosts.end(), replacement) != hosts.end();
  }
  ASSERT_GT(hosted, 0u);
  const rs::Code code(cfg.k, cfg.m);
  const auto balanced = recovery::balance_multi(placement, censuses);
  util::Rng rr_rng(5);
  const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
  const auto car_plan = reference::build_multi_car_plan(
      placement, code, balanced.solutions, kChunk, replacement);
  const auto rr_plan = reference::build_multi_rr_plan(placement, code, rr,
                                                      kChunk, replacement);
  PlanTemplateCache cache;  // warm on the second slice size, as in a rebuild
  for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kChunk}) {
    SCOPED_TRACE("slice " + std::to_string(slice));
    expect_arena_equal(
        recovery::build_multi_car_arena(placement, code, balanced.solutions,
                                        kChunk, slice, replacement, cache),
        PlanArena::build(car_plan, slice));
    expect_arena_equal(
        recovery::build_multi_rr_arena(placement, code, rr, kChunk, slice,
                                       replacement, cache),
        PlanArena::build(rr_plan, slice));
  }
}

// --- signature space collapses, and stays collapsed on reuse -------------

TEST(PlanTemplateCache, SignatureSpaceCollapses) {
  const auto fx =
      make_fixture(1, 47, /*stripes=*/400, /*failed_racks=*/1, 0);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  ASSERT_GT(balanced.solutions.size(), 100u);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, kChunk,
      fx.scenario.replacement, cache);
  EXPECT_GT(arena.num_base_steps(), 0u);
  // Hundreds of stripes share a handful of structural signatures.
  EXPECT_LT(cache.stats().misses * 10, balanced.solutions.size());
  // A second batch over the same signatures runs entirely on hits.
  const auto misses_before = cache.stats().misses;
  const auto again = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, kChunk,
      fx.scenario.replacement, cache);
  EXPECT_EQ(cache.stats().misses, misses_before);
  expect_arena_equal(again, arena);
}

// --- decode coefficients memoise canonically ------------------------------

TEST(RepairMemo, CanonicalisesOnLostAndSurvivorSet) {
  const rs::Code code(4, 2);
  recovery::RepairMemo memo;
  const std::vector<std::size_t> survivors{1, 2, 3, 4};
  // Entries are addressed by chunk index (instantiation does
  // coeffs[lost][chunk]), so the span covers 0..max survivor index.
  const auto first = memo.coeffs(code, 0, survivors);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(memo.size(), 1u);
  // Same key: same entry (no growth) and the exact same storage.
  const auto second = memo.coeffs(code, 0, survivors);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(first.data(), second.data());
  // The memo must agree with the code's own repair vector, re-indexed by
  // chunk, with non-survivor positions zeroed.
  const auto direct = code.repair_vector(0, survivors);
  ASSERT_EQ(direct.size(), survivors.size());
  EXPECT_EQ(first[0], 0);  // chunk 0 is the lost one, not a survivor
  for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
    EXPECT_EQ(first[survivors[pos]], direct[pos]) << "survivor " << pos;
  }
  // A different lost chunk or survivor set is a different entry.
  (void)memo.coeffs(code, 5, survivors);
  EXPECT_EQ(memo.size(), 2u);
  (void)memo.coeffs(code, 1, std::vector<std::size_t>{0, 2, 3, 4});
  EXPECT_EQ(memo.size(), 3u);
}

// --- sharded scans are bit-identical to serial ---------------------------

TEST(ShardedScan, MultiCensusesInvariantInShardCount) {
  const auto fx =
      make_fixture(2, 53, /*stripes=*/97, /*failed_racks=*/1, 0);
  const auto base =
      recovery::build_multi_censuses(fx.placement, fx.scenario, 1);
  for (const std::size_t shards : {2u, 8u, 200u}) {
    const auto sharded =
        recovery::build_multi_censuses(fx.placement, fx.scenario, shards);
    ASSERT_EQ(sharded.size(), base.size()) << "shards " << shards;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(sharded[i].stripe, base[i].stripe);
      EXPECT_EQ(sharded[i].lost_chunks, base[i].lost_chunks);
      EXPECT_EQ(sharded[i].replacement_rack, base[i].replacement_rack);
      EXPECT_EQ(sharded[i].k, base[i].k);
      EXPECT_EQ(sharded[i].surviving, base[i].surviving);
    }
  }
}

TEST(ShardedScan, ExposureCensusInvariantInShardCount) {
  const auto fx =
      make_fixture(1, 59, /*stripes=*/83, /*failed_racks=*/1, 0);
  recovery::RecoveredSet recovered;
  // Mark a few chunks recovered so plan/exposed sets diverge.
  for (const auto& census : fx.censuses) {
    if (census.stripe % 3 == 0 && !census.lost_chunks.empty()) {
      recovered.mark(census.stripe, census.lost_chunks.front());
    }
  }
  const auto base = recovery::build_exposure_census(
      fx.placement, fx.scenario.failed_nodes, fx.scenario.replacement,
      recovered, 1);
  for (const std::size_t shards : {2u, 8u}) {
    const auto sharded = recovery::build_exposure_census(
        fx.placement, fx.scenario.failed_nodes, fx.scenario.replacement,
        recovered, shards);
    ASSERT_EQ(sharded.size(), base.size()) << "shards " << shards;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(sharded[i].stripe, base[i].stripe);
      EXPECT_EQ(sharded[i].exposed_chunks, base[i].exposed_chunks);
      EXPECT_EQ(sharded[i].plan_chunks, base[i].plan_chunks);
      EXPECT_EQ(sharded[i].plan_hosts, base[i].plan_hosts);
      EXPECT_EQ(sharded[i].tolerance_left, base[i].tolerance_left);
      EXPECT_EQ(sharded[i].min_racks, base[i].min_racks);
    }
  }
}

// --- real bytes decode bit-exactly through a template-cached arena -------

TEST(PlanTemplateCache, RealBytesDecodeBitExactFromTemplatedArena) {
  const auto fx =
      make_fixture(0, 61, /*stripes=*/24, /*failed_racks=*/1, 0);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  PlanTemplateCache cache;
  const auto arena = recovery::build_multi_car_arena(
      fx.placement, fx.code, balanced.solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  ASSERT_GT(cache.stats().hits, 0u);

  emul::EmulConfig config;
  config.node_bps = 200e6;
  config.oversubscription = 4.0;
  config.page_bytes = 16 * 1024;
  emul::Cluster cluster(fx.placement.topology(), config);
  std::vector<cluster::StripeId> all(fx.placement.num_stripes());
  std::iota(all.begin(), all.end(), cluster::StripeId{0});
  const auto originals =
      cluster.populate_sampled(fx.placement, fx.code, kChunk, 7, all);
  for (const auto node : fx.scenario.failed_nodes) cluster.erase_node(node);

  emul::ArenaExecOptions options;
  options.shards = 2;
  const auto report = cluster.execute_arena(arena, options);
  EXPECT_GT(report.wall_s, 0.0);

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

}  // namespace
}  // namespace car
