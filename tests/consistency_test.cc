// Cross-backend consistency properties: the same RecoveryPlan flows through
// the counting, simulation, and emulation back-ends, so their outputs must
// obey tight mutual invariants on *randomized* scenarios — a property-test
// net over the whole stack.
#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "simnet/flowsim.h"

namespace car {
namespace {

struct Scenario {
  cluster::CfsConfig cfg;
  cluster::Placement placement;
  rs::Code code;
  cluster::FailureScenario failure;
  std::vector<recovery::MultiStripeCensus> censuses;

  Scenario(int cfg_index, std::uint64_t seed, std::size_t stripes)
      : cfg(cluster::paper_configs()[cfg_index]),
        placement(make(cfg, stripes, seed)),
        code(cfg.k, cfg.m) {
    util::Rng rng(seed + 1);
    failure = cluster::inject_random_failure(placement, rng);
    censuses = recovery::build_multi_censuses(
        placement,
        recovery::make_multi_failure(placement, {failure.failed_node}));
  }

  static cluster::Placement make(const cluster::CfsConfig& cfg,
                                 std::size_t stripes, std::uint64_t seed) {
    util::Rng rng(seed);
    return cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes,
                                      rng);
  }
};

class CrossBackend
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CrossBackend, SimulatedMakespanRespectsBandwidthLowerBounds) {
  Scenario s(std::get<0>(GetParam()), std::get<1>(GetParam()), 40);
  constexpr std::uint64_t kChunk = 8ull << 20;
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, s.code, balanced.solutions, kChunk, s.failure.failed_node);

  simnet::NetConfig net;
  const auto sim = simulate_plan(s.placement.topology(), plan, net);

  // Lower bound 1: every byte destined for the replacement crosses its
  // node downlink.
  std::uint64_t into_replacement = 0;
  for (const auto& step : plan.steps) {
    if (step.kind == recovery::StepKind::kTransfer &&
        step.dst == s.failure.failed_node) {
      into_replacement += step.bytes;
    }
  }
  const double bound1 =
      static_cast<double>(into_replacement) / net.node_bps;
  EXPECT_GE(sim.makespan_s, bound1 * (1.0 - 1e-9));

  // Lower bound 2: cross-rack bytes into the replacement rack drain through
  // its rack downlink.
  const double rack_down_bps =
      static_cast<double>(s.placement.topology().nodes_in_rack_count(
          s.failure.failed_rack)) *
      net.node_bps / net.oversubscription;
  std::uint64_t into_rack = 0;
  for (const auto& step : plan.steps) {
    if (step.kind == recovery::StepKind::kTransfer && step.cross_rack &&
        s.placement.topology().rack_of(step.dst) == s.failure.failed_rack) {
      into_rack += step.bytes;
    }
  }
  EXPECT_GE(sim.makespan_s,
            static_cast<double>(into_rack) / rack_down_bps * (1.0 - 1e-9));

  // Upper bound sanity: fully serial execution of all work on the slowest
  // link can't be beaten by more than numerical noise... but it must at
  // least finish: all steps have finish times.
  for (const auto& t : sim.finish_time_s) EXPECT_GE(t, 0.0);
  EXPECT_GE(sim.makespan_s, sim.last_transfer_s - 1e-12);
}

TEST_P(CrossBackend, CountingSimulationAndEmulationAgreeOnBytes) {
  Scenario s(std::get<0>(GetParam()), std::get<1>(GetParam()), 10);
  constexpr std::uint64_t kChunk = 16 * 1024;
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, s.code, balanced.solutions, kChunk, s.failure.failed_node);

  // Counting back-end.
  const auto summary = recovery::multi_traffic(
      balanced.solutions, s.placement.topology().num_racks(),
      s.failure.failed_rack);
  ASSERT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));

  // Emulation back-end moves exactly the plan's bytes.
  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 500e6;
  emul::Cluster cluster(s.cfg.topology(), emul_cfg);
  util::Rng data_rng(std::get<1>(GetParam()) + 9);
  cluster.populate(s.placement, s.code, kChunk, data_rng);
  cluster.erase_node(s.failure.failed_node);
  const auto report = cluster.execute(plan);
  EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
  EXPECT_EQ(report.intra_rack_bytes, plan.intra_rack_bytes());
  EXPECT_EQ(report.per_rack_cross_bytes,
            plan.per_rack_cross_bytes(s.placement.topology()));
}

TEST_P(CrossBackend, EmulatedRecoveryMatchesCodecGroundTruth) {
  Scenario s(std::get<0>(GetParam()), std::get<1>(GetParam()), 6);
  constexpr std::uint64_t kChunk = 8 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 500e6;
  emul::Cluster cluster(s.cfg.topology(), emul_cfg);
  util::Rng data_rng(std::get<1>(GetParam()) + 5);
  const auto originals = cluster.populate(s.placement, s.code, kChunk,
                                          data_rng);
  cluster.erase_node(s.failure.failed_node);

  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, s.code, balanced.solutions, kChunk, s.failure.failed_node);
  cluster.execute(plan);

  // Ground truth via the codec directly, using each solution's survivors.
  for (const auto& solution : balanced.solutions) {
    const auto& survivors = solution.chunks;
    std::vector<rs::ChunkView> views;
    for (std::size_t c : survivors) {
      views.push_back(originals[solution.stripe][c]);
    }
    ASSERT_EQ(solution.lost_chunks.size(), 1u);
    const std::size_t lost = solution.lost_chunks.front();
    const auto expected = s.code.reconstruct(lost, survivors, views);
    const auto* emulated =
        cluster.find_chunk(s.failure.failed_node, solution.stripe, lost);
    ASSERT_NE(emulated, nullptr);
    EXPECT_EQ(*emulated, expected);
    EXPECT_EQ(expected, originals[solution.stripe][lost]);
  }
}

TEST_P(CrossBackend, BackgroundLoadSlowsRecoveryProportionally) {
  Scenario s(std::get<0>(GetParam()), std::get<1>(GetParam()), 30);
  constexpr std::uint64_t kChunk = 4ull << 20;
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, s.code, balanced.solutions, kChunk, s.failure.failed_node);

  simnet::NetConfig idle;
  simnet::NetConfig busy;
  busy.background_load = 0.5;
  const auto t_idle =
      simnet::simulate_plan(s.placement.topology(), plan, idle);
  const auto t_busy =
      simnet::simulate_plan(s.placement.topology(), plan, busy);
  // Network-bound plan on a half-capacity fabric: ~2x slower (compute is a
  // small constant, so allow slack).
  EXPECT_GT(t_busy.makespan_s, 1.6 * t_idle.makespan_s);
  EXPECT_LT(t_busy.makespan_s, 2.4 * t_idle.makespan_s);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, CrossBackend,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(13u, 29u)));

}  // namespace
}  // namespace car
