#include "simnet/flowsim.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"

namespace car::simnet {
namespace {

using cluster::Topology;
using recovery::BufferRef;
using recovery::PlanStep;
using recovery::RecoveryPlan;
using recovery::StepKind;

RecoveryPlan empty_plan(cluster::NodeId replacement, std::uint64_t chunk) {
  RecoveryPlan plan;
  plan.replacement = replacement;
  plan.chunk_size = chunk;
  return plan;
}

PlanStep transfer(std::size_t id, cluster::NodeId src, cluster::NodeId dst,
                  std::uint64_t bytes, std::vector<std::size_t> deps = {}) {
  PlanStep s;
  s.id = id;
  s.kind = StepKind::kTransfer;
  s.src = src;
  s.dst = dst;
  s.bytes = bytes;
  s.deps = std::move(deps);
  return s;
}

PlanStep compute(std::size_t id, cluster::NodeId node, std::uint64_t bytes,
                 std::vector<std::size_t> deps = {},
                 std::uint8_t coeff = 2) {
  PlanStep s;
  s.id = id;
  s.kind = StepKind::kCompute;
  s.node = node;
  s.bytes = bytes;
  s.inputs = {{BufferRef::chunk(0, 0), coeff}};
  s.deps = std::move(deps);
  return s;
}

NetConfig fast_net() {
  NetConfig cfg;
  cfg.node_bps = 100.0;  // 100 bytes/sec -> easy mental math
  cfg.oversubscription = 2.0;
  cfg.gf_compute_bps = 1000.0;
  cfg.xor_compute_bps = 2000.0;
  return cfg;
}

TEST(FlowSim, SingleIntraRackTransferTakesBytesOverNodeRate) {
  const Topology topo({2, 2});
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 1, 0, 100));
  const auto result = simulate_plan(topo, plan, fast_net());
  // Intra-rack route: node1.up (100 B/s) and node0.down (100 B/s) -> 1 s.
  EXPECT_NEAR(result.makespan_s, 1.0, 1e-9);
  EXPECT_NEAR(result.finish_time_s[0], 1.0, 1e-9);
  EXPECT_EQ(result.compute_busy_s, 0.0);
}

TEST(FlowSim, CrossRackTransferIsBottleneckedByTheRackLink) {
  const Topology topo({2, 2});
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 2, 0, 100));
  const auto result = simulate_plan(topo, plan, fast_net());
  // Rack link = 2 nodes * 100 / oversub 2 = 100 B/s: same as node rate,
  // still 1 s.
  EXPECT_NEAR(result.makespan_s, 1.0, 1e-9);

  NetConfig slow_core = fast_net();
  slow_core.oversubscription = 4.0;  // rack link = 50 B/s
  const auto slow = simulate_plan(topo, plan, slow_core);
  EXPECT_NEAR(slow.makespan_s, 2.0, 1e-9);
}

TEST(FlowSim, TwoFlowsShareABottleneckFairly) {
  const Topology topo({3, 3});
  auto plan = empty_plan(0, 100);
  // Both remote nodes send to node 0: its down-link (100 B/s) is shared.
  plan.steps.push_back(transfer(0, 1, 0, 100));
  plan.steps.push_back(transfer(1, 2, 0, 100));
  const auto result = simulate_plan(topo, plan, fast_net());
  EXPECT_NEAR(result.makespan_s, 2.0, 1e-9);
}

TEST(FlowSim, MaxMinGivesUnevenSharesWhenRoutesDiffer) {
  const Topology topo({2, 2});
  NetConfig cfg = fast_net();
  cfg.oversubscription = 4.0;  // rack links 50 B/s
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 2, 0, 100));  // cross-rack, capped at 50
  plan.steps.push_back(transfer(1, 1, 0, 100));  // intra-rack
  const auto result = simulate_plan(topo, plan, cfg);
  // Node0 down-link: fair share 50/50 at first; cross-rack flow is capped at
  // 50 by the rack link anyway, intra-rack takes the remaining 50.
  // Both finish at t=2.
  EXPECT_NEAR(result.finish_time_s[0], 2.0, 1e-9);
  EXPECT_NEAR(result.finish_time_s[1], 2.0, 1e-9);
}

TEST(FlowSim, DependenciesSerialiseAndComputeTimesAdd) {
  const Topology topo({2, 2});
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 1, 0, 100));          // 1 s
  plan.steps.push_back(compute(1, 0, 1000, {0}));        // 1 s GF at 1000 B/s
  plan.steps.push_back(transfer(2, 0, 2, 100, {1}));     // cross, 1 s
  const auto result = simulate_plan(topo, plan, fast_net());
  EXPECT_NEAR(result.makespan_s, 3.0, 1e-9);
  EXPECT_NEAR(result.compute_busy_s, 1.0, 1e-9);
  EXPECT_NEAR(result.replacement_compute_s, 1.0, 1e-9);
  EXPECT_NEAR(result.last_transfer_s, 3.0, 1e-9);
  EXPECT_NEAR(result.transmission_s(), 2.0, 1e-9);
}

TEST(FlowSim, XorComputeUsesTheFasterRate) {
  const Topology topo({1});
  auto plan = empty_plan(0, 1);
  plan.steps.push_back(compute(0, 0, 2000, {}, /*coeff=*/1));  // pure XOR
  const auto result = simulate_plan(topo, plan, fast_net());
  EXPECT_NEAR(result.makespan_s, 1.0, 1e-9);  // 2000 / 2000 B/s
}

TEST(FlowSim, RackComputeMultiplierSpeedsUpARack) {
  const Topology topo({1, 1});
  NetConfig cfg = fast_net();
  cfg.rack_compute_multiplier = {1.0, 4.0};
  auto plan = empty_plan(0, 1);
  plan.steps.push_back(compute(0, 1, 1000));
  const auto result = simulate_plan(topo, plan, cfg);
  EXPECT_NEAR(result.makespan_s, 0.25, 1e-9);
}

TEST(FlowSim, CpuIsSerialPerNode) {
  const Topology topo({1});
  auto plan = empty_plan(0, 1);
  plan.steps.push_back(compute(0, 0, 1000));
  plan.steps.push_back(compute(1, 0, 1000));
  const auto result = simulate_plan(topo, plan, fast_net());
  EXPECT_NEAR(result.makespan_s, 2.0, 1e-9);
}

TEST(FlowSim, PerHopLatencyDelaysTransfers) {
  const Topology topo({2, 2});
  NetConfig cfg = fast_net();
  cfg.per_hop_latency_s = 0.25;
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 1, 0, 100));  // intra-rack: 2 hops
  const auto intra = simulate_plan(topo, plan, cfg);
  EXPECT_NEAR(intra.makespan_s, 1.0 + 2 * 0.25, 1e-9);

  auto cross_plan = empty_plan(0, 100);
  cross_plan.steps.push_back(transfer(0, 2, 0, 100));  // cross-rack: 4 hops
  const auto cross = simulate_plan(topo, cross_plan, cfg);
  EXPECT_NEAR(cross.makespan_s, 1.0 + 4 * 0.25, 1e-9);
}

TEST(FlowSim, LatencyChainsThroughDependencies) {
  const Topology topo({2, 2});
  NetConfig cfg = fast_net();
  cfg.per_hop_latency_s = 0.5;
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 1, 0, 100));        // 1 s + 1 s latency
  plan.steps.push_back(transfer(1, 0, 1, 100, {0}));   // same again
  const auto result = simulate_plan(topo, plan, cfg);
  EXPECT_NEAR(result.makespan_s, 2.0 * (1.0 + 1.0), 1e-9);
}

TEST(FlowSim, BackgroundLoadScalesCapacityDown) {
  const Topology topo({2, 2});
  NetConfig cfg = fast_net();
  cfg.background_load = 0.5;  // half the fabric is busy
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 1, 0, 100));
  const auto result = simulate_plan(topo, plan, cfg);
  EXPECT_NEAR(result.makespan_s, 2.0, 1e-9);  // 100 B at 50 B/s

  NetConfig bad = fast_net();
  bad.background_load = 1.0;
  EXPECT_THROW(simulate_plan(topo, plan, bad), std::invalid_argument);
  bad.background_load = -0.1;
  EXPECT_THROW(simulate_plan(topo, plan, bad), std::invalid_argument);
}

TEST(FlowSim, NegativeLatencyRejected) {
  const Topology topo({2});
  auto plan = empty_plan(0, 1);
  NetConfig cfg = fast_net();
  cfg.per_hop_latency_s = -0.1;
  EXPECT_THROW(simulate_plan(topo, plan, cfg), std::invalid_argument);
}

TEST(FlowSim, CycleDetection) {
  const Topology topo({2});
  auto plan = empty_plan(0, 1);
  plan.steps.push_back(transfer(0, 1, 0, 10, {1}));
  plan.steps.push_back(transfer(1, 1, 0, 10, {0}));
  EXPECT_THROW(simulate_plan(topo, plan, fast_net()), std::invalid_argument);
}

TEST(FlowSim, InvalidConfigRejected) {
  const Topology topo({2});
  auto plan = empty_plan(0, 1);
  NetConfig bad;
  bad.node_bps = -1;
  EXPECT_THROW(simulate_plan(topo, plan, bad), std::invalid_argument);
  NetConfig wrong_mult;
  wrong_mult.rack_compute_multiplier = {1.0, 2.0};  // topo has 1 rack
  EXPECT_THROW(simulate_plan(topo, plan, wrong_mult), std::invalid_argument);
}

TEST(FlowSim, NonFiniteRatesAreRejectedNamingTheField) {
  // An infinite rate is not a fast link: rejected at validation, naming the
  // field, instead of starving a flow of bandwidth mid-simulation.
  const Topology topo({2, 2});
  auto plan = empty_plan(0, 100);
  plan.steps.push_back(transfer(0, 2, 0, 100));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto error = [&](const NetConfig& cfg) -> std::string {
    try {
      (void)simulate_plan(topo, plan, cfg);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  for (const double bad : {kInf, kNaN}) {
    NetConfig cfg = fast_net();
    cfg.node_bps = bad;
    EXPECT_NE(error(cfg).find("node_bps"), std::string::npos) << bad;
    cfg = fast_net();
    cfg.oversubscription = bad;
    EXPECT_NE(error(cfg).find("oversubscription"), std::string::npos) << bad;
    cfg = fast_net();
    cfg.rack_link_bps = bad;
    EXPECT_NE(error(cfg).find("rack_link_bps"), std::string::npos) << bad;
    cfg = fast_net();
    cfg.gf_compute_bps = bad;
    EXPECT_NE(error(cfg).find("gf_compute_bps"), std::string::npos) << bad;
    cfg = fast_net();
    cfg.xor_compute_bps = bad;
    EXPECT_NE(error(cfg).find("xor_compute_bps"), std::string::npos) << bad;
    cfg = fast_net();
    cfg.per_hop_latency_s = bad;
    EXPECT_NE(error(cfg).find("per_hop_latency_s"), std::string::npos) << bad;
  }
  EXPECT_EQ(error(fast_net()), "");
}

class EndToEndSim
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EndToEndSim, CarRecoversFasterThanRrOnPaperConfigs) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  util::Rng rng(std::get<1>(GetParam()));
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 50, rng);
  const auto scenario = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {scenario.failed_node}));
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 4ull << 20;

  const auto car = recovery::balance_multi(placement, censuses, 50);
  const auto car_plan = recovery::build_multi_car_plan(
      placement, code, car.solutions, kChunk, scenario.failed_node);

  const auto rr = recovery::plan_multi_rr(placement, censuses, rng);
  const auto rr_plan = recovery::build_multi_rr_plan(placement, code, rr, kChunk,
                                                     scenario.failed_node);

  NetConfig net;  // defaults: 1 GbE, 5x oversubscription
  const auto car_time = simulate_plan(placement.topology(), car_plan, net);
  const auto rr_time = simulate_plan(placement.topology(), rr_plan, net);
  EXPECT_LT(car_time.makespan_s, rr_time.makespan_s)
      << cfg.name << " seed " << std::get<1>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, EndToEndSim,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(5u, 55u)));

}  // namespace
}  // namespace car::simnet
