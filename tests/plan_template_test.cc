// Template-cache differential tests: plans instantiated from cached
// signatures must be the *same function* as the classic per-stripe
// planners — bit-equal RecoveryPlans, bit-equal arenas (columns, reverse
// CSR, outputs, accounting), a collapsing signature space, canonical
// decode-coefficient memoisation, shard-invariant scans, and real-byte
// decode through a template-cached arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "cluster/configs.h"
#include "cluster/placement.h"
#include "emul/cluster.h"
#include "recovery/exposure.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/slice.h"
#include "rs/code.h"
#include "util/rng.h"

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
  const auto sa = a.to_slice_plan();
  const auto sb = b.to_slice_plan();
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
      const auto classic = recovery::build_multi_car_plan(
          fx.placement, fx.code, balanced.solutions, kChunk,
          fx.scenario.replacement);
      PlanTemplateCache cache;
      const auto cached = recovery::build_multi_car_plan_cached(
          fx.placement, fx.code, balanced.solutions, kChunk,
          fx.scenario.replacement, cache);
      expect_plan_equal(cached, classic);
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
    const auto classic = recovery::build_multi_rr_plan(
        fx.placement, fx.code, solutions, kChunk, fx.scenario.replacement);
    PlanTemplateCache cache;
    const auto cached = recovery::build_multi_rr_plan_cached(
        fx.placement, fx.code, solutions, kChunk, fx.scenario.replacement,
        cache);
    expect_plan_equal(cached, classic);
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
  const auto classic = recovery::build_multi_car_plan(
      placement, code, balanced.solutions, kChunk, replacement);
  PlanTemplateCache cache;
  const auto cached = recovery::build_multi_car_plan_cached(
      placement, code, balanced.solutions, kChunk, replacement, cache);
  expect_plan_equal(cached, classic);
}

// --- templated arena == classic lowering, including the reverse CSR ------

TEST(PlanTemplateCache, TemplatedCarArenaMatchesClassicLowering) {
  const auto fx =
      make_fixture(1, 41, /*stripes=*/50, /*failed_racks=*/1, 0);
  const auto balanced = recovery::balance_multi(fx.placement, fx.censuses);
  const auto classic_plan = recovery::build_multi_car_plan(
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
  const auto classic_plan = recovery::build_multi_rr_plan(
      fx.placement, fx.code, solutions, kChunk, fx.scenario.replacement);
  const auto classic = PlanArena::build(classic_plan, 16 * 1024);
  PlanTemplateCache cache;
  const auto templated = recovery::build_multi_rr_arena(
      fx.placement, fx.code, solutions, kChunk, 16 * 1024,
      fx.scenario.replacement, cache);
  expect_arena_equal(templated, classic);
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
