// End-to-end integration: the full CAR pipeline (placement -> failure ->
// census -> Theorem 1 -> balancing -> plan -> execution on the emulated
// cluster) against the RR baseline, on all three paper configurations, with
// bit-exact verification of every recovered chunk.
#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "simnet/flowsim.h"

namespace car {
namespace {

struct PipelineResult {
  recovery::TrafficSummary traffic;
  double sim_makespan_s = 0.0;
  std::size_t cross_rack_chunks = 0;
};

class FullPipeline
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static constexpr std::size_t kStripes = 25;
  static constexpr std::uint64_t kChunkSize = 32 * 1024;

  cluster::CfsConfig cfg_ =
      cluster::paper_configs()[std::get<0>(GetParam())];
  util::Rng rng_{std::get<1>(GetParam())};
};

TEST_P(FullPipeline, CarBeatsRrAndBothRecoverBitExactly) {
  auto placement = cluster::Placement::random(cfg_.topology(), cfg_.k, cfg_.m,
                                              kStripes, rng_);
  const rs::Code code(cfg_.k, cfg_.m);

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul_cfg.oversubscription = 5.0;
  emul_cfg.page_bytes = 16 * 1024;

  // Two identical clusters so CAR and RR start from the same bytes.
  emul::Cluster cluster_car(cfg_.topology(), emul_cfg);
  emul::Cluster cluster_rr(cfg_.topology(), emul_cfg);
  util::Rng data_rng = rng_.split();
  util::Rng data_rng_copy = data_rng;  // same stream -> same stripes
  const auto originals =
      cluster_car.populate(placement, code, kChunkSize, data_rng);
  const auto originals_rr =
      cluster_rr.populate(placement, code, kChunkSize, data_rng_copy);
  ASSERT_EQ(originals.size(), originals_rr.size());

  const auto scenario = cluster::inject_random_failure(placement, rng_);
  cluster_car.erase_node(scenario.failed_node);
  cluster_rr.erase_node(scenario.failed_node);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {scenario.failed_node}));

  // --- CAR ---
  const auto balanced = recovery::balance_multi(placement, censuses, 50);
  const auto car_plan = recovery::build_multi_car_plan(
      placement, code, balanced.solutions, kChunkSize, scenario.failed_node);
  const auto car_report = cluster_car.execute(car_plan);

  // --- RR ---
  const auto rr = recovery::plan_multi_rr(placement, censuses, rng_);
  const auto rr_plan = recovery::build_multi_rr_plan(placement, code, rr, kChunkSize,
                                                     scenario.failed_node);
  const auto rr_report = cluster_rr.execute(rr_plan);

  // Bit-exact recovery on both paths.
  for (const auto& lost : scenario.lost) {
    const auto* car_chunk = cluster_car.find_chunk(
        scenario.failed_node, lost.stripe, lost.chunk_index);
    const auto* rr_chunk = cluster_rr.find_chunk(scenario.failed_node,
                                                 lost.stripe, lost.chunk_index);
    ASSERT_NE(car_chunk, nullptr);
    ASSERT_NE(rr_chunk, nullptr);
    EXPECT_EQ(*car_chunk, originals[lost.stripe][lost.chunk_index]);
    EXPECT_EQ(*rr_chunk, originals[lost.stripe][lost.chunk_index]);
  }

  // CAR never ships more cross-rack bytes than RR (Fig. 7's invariant).
  EXPECT_LE(car_report.cross_rack_bytes, rr_report.cross_rack_bytes);

  // The flow simulator agrees directionally with the emulator.
  simnet::NetConfig net;
  const auto car_sim = simnet::simulate_plan(cfg_.topology(), car_plan, net);
  const auto rr_sim = simnet::simulate_plan(cfg_.topology(), rr_plan, net);
  EXPECT_LT(car_sim.makespan_s, rr_sim.makespan_s);
}

TEST_P(FullPipeline, BalancedLambdaIsNeverWorseThanUnbalanced) {
  auto placement = cluster::Placement::random(cfg_.topology(), cfg_.k, cfg_.m,
                                              100, rng_);
  const auto scenario = cluster::inject_random_failure(placement, rng_);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {scenario.failed_node}));

  const auto initial = recovery::balance_multi(placement, censuses, 0).solutions;
  const auto balanced = recovery::balance_multi(placement, censuses, 50);

  const auto racks = placement.topology().num_racks();
  const auto lambda0 =
      recovery::multi_traffic(initial, racks, scenario.failed_rack).lambda();
  const auto lambda1 =
      recovery::multi_traffic(balanced.solutions, racks, scenario.failed_rack)
          .lambda();
  EXPECT_LE(lambda1, lambda0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, FullPipeline,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 9u)));

TEST(FullPipelineEdge, EveryNodeFailureInCfs1IsRecoverable) {
  // Exhaustively fail every node (not just a random one) in a small cluster
  // and confirm the whole pipeline runs and the traffic accounting is
  // consistent.
  const auto cfg = cluster::cfs1();
  util::Rng rng(99);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 30, rng);
  const rs::Code code(cfg.k, cfg.m);

  for (cluster::NodeId node = 0; node < placement.topology().num_nodes();
       ++node) {
    const auto scenario = cluster::inject_node_failure(placement, node);
    if (scenario.lost.empty()) continue;
    const auto censuses = recovery::build_multi_censuses(
        placement,
        recovery::make_multi_failure(placement, {scenario.failed_node}));
    const auto balanced = recovery::balance_multi(placement, censuses, 50);
    const auto plan = recovery::build_multi_car_plan(
        placement, code, balanced.solutions, 4096, node);
    const auto summary = recovery::multi_traffic(
        balanced.solutions, placement.topology().num_racks(),
        scenario.failed_rack);
    EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(4096));
    EXPECT_EQ(plan.outputs.size(), scenario.lost.size());
  }
}

}  // namespace
}  // namespace car
