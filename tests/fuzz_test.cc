// Randomised end-to-end property checks over *arbitrary* small clusters —
// random rack shapes, random (k, m), random placements and failures — so the
// pipeline's invariants are exercised far outside the paper's three
// configurations.
#include <gtest/gtest.h>

#include <numeric>

#include "cluster/failure.h"
#include "recovery/multi.h"
#include "recovery/scheduler.h"
#include "simnet/flowsim.h"

namespace car {
namespace {

struct RandomCluster {
  cluster::Topology topology;
  std::size_t k;
  std::size_t m;
  cluster::Placement placement;
};

/// Draw a random feasible cluster: 2-6 racks of 1-6 nodes, k in [2, 10],
/// m in [1, 4], subject to the rack-quota feasibility condition.
RandomCluster draw_cluster(util::Rng& rng, std::size_t stripes) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::size_t racks = 2 + rng.next_below(5);
    std::vector<std::size_t> nodes_per_rack(racks);
    for (auto& n : nodes_per_rack) n = 1 + rng.next_below(6);
    const std::size_t k = 2 + rng.next_below(9);
    const std::size_t m = 1 + rng.next_below(4);

    cluster::Topology topology(nodes_per_rack);
    std::size_t capacity = 0;
    for (std::size_t r = 0; r < racks; ++r) {
      capacity += std::min(topology.nodes_in_rack_count(r), m);
    }
    if (capacity < k + m) continue;

    auto placement = cluster::Placement::random(topology, k, m, stripes, rng);
    return {std::move(topology), k, m, std::move(placement)};
  }
  throw std::logic_error("draw_cluster: no feasible cluster in 100 draws");
}

/// Brute-force minimum rack count for one census (reference for Theorem 1).
std::size_t brute_force_min_racks(const recovery::MultiStripeCensus& census,
                                  std::size_t num_racks) {
  std::vector<std::size_t> surviving(num_racks, 0);
  for (const auto& entry : census.surviving.ranked()) {
    surviving[entry.rack] = entry.count;
  }
  std::vector<cluster::RackId> intact;
  for (cluster::RackId i = 0; i < num_racks; ++i) {
    if (i != census.replacement_rack) intact.push_back(i);
  }
  std::size_t best = intact.size() + 1;
  for (std::size_t mask = 0; mask < (1u << intact.size()); ++mask) {
    std::size_t sum = surviving[census.replacement_rack];
    std::size_t bits = 0;
    for (std::size_t b = 0; b < intact.size(); ++b) {
      if (mask & (1u << b)) {
        sum += surviving[intact[b]];
        ++bits;
      }
    }
    if (sum >= census.k) best = std::min(best, bits);
  }
  return best;
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, InvariantsHoldOnRandomClusters) {
  util::Rng rng(GetParam() * 0x9E3779B9ULL + 17);
  for (int round = 0; round < 12; ++round) {
    const auto rc = draw_cluster(rng, 8 + rng.next_below(25));
    const auto scenario = cluster::inject_random_failure(rc.placement, rng);
    const auto censuses = recovery::build_multi_censuses(
        rc.placement,
        recovery::make_multi_failure(rc.placement, {scenario.failed_node}));
    ASSERT_FALSE(censuses.empty());

    // Theorem 1 equals brute force on every stripe.
    for (const auto& census : censuses) {
      ASSERT_EQ(recovery::min_racks_for(census.k, census.replacement_rack,
                                        census.surviving.ranked()),
                brute_force_min_racks(census, rc.topology.num_racks()));
    }

    // Balancing: valid minimal solutions, monotone lambda, invariant total.
    const auto initial = recovery::balance_multi(rc.placement, censuses, 0).solutions;
    const auto balanced =
        recovery::balance_multi(rc.placement, censuses, 60);
    const auto racks = rc.topology.num_racks();
    const auto t0 =
        recovery::multi_traffic(initial, racks, scenario.failed_rack);
    const auto t1 = recovery::multi_traffic(balanced.solutions, racks,
                                            scenario.failed_rack);
    ASSERT_EQ(t0.total_chunks(), t1.total_chunks());
    ASSERT_LE(t1.lambda(), t0.lambda() + 1e-12);
    for (std::size_t j = 0; j < censuses.size(); ++j) {
      ASSERT_TRUE(recovery::is_valid_minimal_for(
          censuses[j].k, censuses[j].replacement_rack,
          censuses[j].surviving.ranked(), balanced.solutions[j].rack_set));
      // Exactly k distinct chunks read.
      ASSERT_EQ(balanced.solutions[j].chunks.size(), censuses[j].k);
    }

    // CAR cross-rack traffic never exceeds RR's.
    const auto rr = recovery::plan_multi_rr(rc.placement, censuses, rng);
    const auto rr_sum =
        recovery::multi_rr_traffic(rc.placement, rr, scenario.failed_rack);
    ASSERT_LE(t1.total_chunks(), rr_sum.total_chunks());

    // Plans agree with counting; the simulator completes both and CAR's
    // makespan never exceeds RR's beyond numerical noise... CAR can in
    // principle tie, so assert <=.
    const rs::Code code(rc.k, rc.m);
    constexpr std::uint64_t kChunk = 1ull << 20;
    const auto car_plan = recovery::build_multi_car_plan(
        rc.placement, code, balanced.solutions, kChunk,
        scenario.failed_node);
    ASSERT_EQ(car_plan.cross_rack_bytes(), t1.total_bytes(kChunk));
    const auto rr_plan = recovery::build_multi_rr_plan(rc.placement, code, rr,
                                                       kChunk, scenario.failed_node);
    ASSERT_EQ(rr_plan.cross_rack_bytes(), rr_sum.total_bytes(kChunk));

    const simnet::NetConfig net;
    const auto car_sim =
        simnet::simulate_plan(rc.topology, car_plan, net);
    const auto rr_sim = simnet::simulate_plan(rc.topology, rr_plan, net);
    ASSERT_GT(car_sim.makespan_s, 0.0);
    ASSERT_LE(car_sim.makespan_s, rr_sim.makespan_s * 1.25)
        << "CAR grossly slower than RR on " << rc.topology.to_string()
        << " k=" << rc.k << " m=" << rc.m;

    // Windowed scheduling preserves work and completes.  A tight window is
    // usually slower but max-min fair sharing is not makespan-optimal, so
    // tiny inversions (~1%) are legitimate — assert with slack.
    const auto windowed = recovery::schedule_windowed(car_plan, 2);
    ASSERT_EQ(windowed.cross_rack_bytes(), car_plan.cross_rack_bytes());
    const auto windowed_sim =
        simnet::simulate_plan(rc.topology, windowed, net);
    ASSERT_GE(windowed_sim.makespan_s, car_sim.makespan_s * 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(PipelineFuzz, ExhaustiveSmallClusterEveryFailure) {
  // One tiny cluster, every possible node failure, every stripe checked.
  util::Rng rng(99);
  cluster::Topology topology({3, 2, 3, 2});
  auto placement = cluster::Placement::random(topology, 4, 2, 15, rng);
  const rs::Code code(4, 2);
  for (cluster::NodeId node = 0; node < topology.num_nodes(); ++node) {
    const auto scenario = cluster::inject_node_failure(placement, node);
    if (scenario.lost.empty()) continue;
    const auto censuses = recovery::build_multi_censuses(
        placement,
        recovery::make_multi_failure(placement, {scenario.failed_node}));
    const auto balanced = recovery::balance_multi(placement, censuses, 60);
    const auto plan = recovery::build_multi_car_plan(
        placement, code, balanced.solutions, 4096, node);
    EXPECT_EQ(plan.outputs.size(), scenario.lost.size());
    const auto sim =
        simnet::simulate_plan(topology, plan, simnet::NetConfig{});
    EXPECT_GT(sim.makespan_s, 0.0);
  }
}

}  // namespace
}  // namespace car
