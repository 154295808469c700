#include "recovery/metrics.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::Topology;

TEST(TrafficSummary, TotalsAndLambda) {
  TrafficSummary summary;
  summary.failed_rack = 0;
  summary.per_rack_chunks = {0, 4, 2, 2, 1};
  EXPECT_EQ(summary.total_chunks(), 9u);
  EXPECT_EQ(summary.total_bytes(1024), 9u * 1024u);
  // λ = 4 / (9/4) = 16/9 — the paper's Figure 6(a) value.
  EXPECT_NEAR(summary.lambda(), 16.0 / 9.0, 1e-12);
}

TEST(TrafficSummary, Figure6AfterSubstitution) {
  TrafficSummary summary;
  summary.failed_rack = 0;
  summary.per_rack_chunks = {0, 3, 3, 2, 1};
  // λ = 3 / (9/4) = 12/9 — Figure 6(b).
  EXPECT_NEAR(summary.lambda(), 12.0 / 9.0, 1e-12);
}

TEST(TrafficSummary, NoTrafficGivesLambdaOne) {
  TrafficSummary summary;
  summary.failed_rack = 0;
  summary.per_rack_chunks = {0, 0, 0};
  EXPECT_EQ(summary.total_chunks(), 0u);
  EXPECT_EQ(summary.lambda(), 1.0);
}

TEST(CarTraffic, CountsOnePartialChunkPerAccessedRack) {
  MultiStripeSolution s1;
  s1.lost_chunks = {0};
  s1.rack_set.racks = {1, 2};
  MultiStripeSolution s2;
  s2.lost_chunks = {0};
  s2.rack_set.racks = {1};
  MultiStripeSolution s3;
  s3.lost_chunks = {0};
  s3.rack_set.racks = {};  // local-only recovery
  const auto summary = multi_traffic({s1, s2, s3}, 4, 0);
  EXPECT_EQ(summary.per_rack_chunks,
            (std::vector<std::size_t>{0, 2, 1, 0}));
  EXPECT_EQ(summary.total_chunks(), 3u);
}

TEST(RrTraffic, CountsEveryChunkOutsideTheFailedRack) {
  // Layout: rack0 = nodes {0,1}, rack1 = {2,3}, rack2 = {4,5}.
  Placement p(Topology({2, 2, 2}), 3, 2);
  p.add_stripe({0, 1, 2, 3, 4});  // chunks 0-4
  MultiRrSolution solution;
  solution.stripe = 0;
  solution.lost_chunks = {0};
  solution.chunk_indices = {1, 2, 4};  // hosts: node1(r0), node2(r1), node4(r2)
  const auto summary = multi_rr_traffic(p, {solution}, 0);
  EXPECT_EQ(summary.per_rack_chunks, (std::vector<std::size_t>{0, 1, 1}));
  EXPECT_EQ(summary.total_chunks(), 2u);
}

TEST(CarVsRr, CarNeverExceedsRrCrossRackTraffic) {
  // Property over the paper's three configurations and several seeds: with
  // aggregation, CAR's per-stripe cross-rack chunks (= racks accessed) can
  // never exceed RR's (= fetched chunks outside the failed rack).
  for (const auto& cfg : cluster::paper_configs()) {
    for (std::uint64_t seed : {10u, 20u, 30u}) {
      util::Rng rng(seed);
      const auto p =
          Placement::random(cfg.topology(), cfg.k, cfg.m, 100, rng);
      const auto scenario = cluster::inject_random_failure(p, rng);
      const auto censuses = build_multi_censuses(
          p, make_multi_failure(p, {scenario.failed_node}));

      const auto car = balance_multi(p, censuses, 50);
      const auto rr = plan_multi_rr(p, censuses, rng);

      const auto racks = p.topology().num_racks();
      const auto car_sum =
          multi_traffic(car.solutions, racks, scenario.failed_rack);
      const auto rr_sum = multi_rr_traffic(p, rr, scenario.failed_rack);
      EXPECT_LE(car_sum.total_chunks(), rr_sum.total_chunks())
          << cfg.name << " seed " << seed;

      // Per-stripe lower bound: CAR uses exactly d_j racks, the minimum.
      std::size_t expected = 0;
      for (const auto& census : censuses) {
        expected += min_racks_for(census.k, census.replacement_rack,
                                  census.surviving.ranked());
      }
      EXPECT_EQ(car_sum.total_chunks(), expected);
    }
  }
}

}  // namespace
}  // namespace car::recovery
