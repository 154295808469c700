#include "recovery/weighted.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/metrics.h"
#include "recovery/multi.h"

namespace car::recovery {
namespace {

using cluster::Placement;

struct Scenario {
  Placement placement;
  cluster::FailureScenario failure;
  std::vector<MultiStripeCensus> censuses;
};

Scenario make_scenario(const cluster::CfsConfig& cfg, std::size_t stripes,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  auto placement =
      Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  auto failure = cluster::inject_random_failure(placement, rng);
  auto censuses = build_multi_censuses(
      placement, make_multi_failure(placement, {failure.failed_node}));
  return {std::move(placement), std::move(failure), std::move(censuses)};
}

TEST(WeightedBalancer, Validation) {
  auto s = make_scenario(cluster::cfs1(), 10, 1);
  EXPECT_THROW(balance_weighted(s.placement, {}, {1, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(balance_weighted(s.placement, s.censuses, {1, 1}),
               std::invalid_argument);
  EXPECT_THROW(balance_weighted(s.placement, s.censuses, {1, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(balance_weighted(s.placement, s.censuses, {1, -2, 1}),
               std::invalid_argument);
}

TEST(WeightedBalancer, UniformBandwidthMatchesUnweightedBehaviour) {
  auto s = make_scenario(cluster::cfs2(), 100, 2);
  const std::vector<double> uniform(s.placement.topology().num_racks(), 1.0);
  const auto weighted = balance_weighted(s.placement, s.censuses, uniform, 50);
  const auto unweighted = balance_multi(s.placement, s.censuses, 50);

  // Same total traffic and essentially the same bottleneck (both minimise
  // the maximum per-rack chunk count when bandwidths are equal).
  const auto racks = s.placement.topology().num_racks();
  const auto tw = multi_traffic(weighted.solutions, racks,
                                s.failure.failed_rack);
  const auto tu = multi_traffic(unweighted.solutions, racks,
                                s.failure.failed_rack);
  EXPECT_EQ(tw.total_chunks(), tu.total_chunks());

  std::size_t max_w = 0, max_u = 0;
  for (cluster::RackId i = 0; i < racks; ++i) {
    if (i == s.failure.failed_rack) continue;
    max_w = std::max(max_w, tw.per_rack_chunks[i]);
    max_u = std::max(max_u, tu.per_rack_chunks[i]);
  }
  EXPECT_EQ(max_w, max_u);
}

class WeightedSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(WeightedSweep, BottleneckTraceIsMonotoneAndTrafficInvariant) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  auto s = make_scenario(cfg, 100, std::get<1>(GetParam()));
  // Heterogeneous uplinks: rack i has bandwidth 1 + i/2.
  std::vector<double> bandwidth;
  for (std::size_t i = 0; i < s.placement.topology().num_racks(); ++i) {
    bandwidth.push_back(1.0 + 0.5 * static_cast<double>(i));
  }
  const auto result =
      balance_weighted(s.placement, s.censuses, bandwidth, 100);

  for (std::size_t i = 1; i < result.bottleneck_trace.size(); ++i) {
    EXPECT_LE(result.bottleneck_trace[i],
              result.bottleneck_trace[i - 1] + 1e-12);
  }

  const auto racks = s.placement.topology().num_racks();
  const auto initial = balance_multi(s.placement, s.censuses, 0).solutions;
  EXPECT_EQ(multi_traffic(result.solutions, racks, s.failure.failed_rack)
                .total_chunks(),
            multi_traffic(initial, racks, s.failure.failed_rack)
                .total_chunks());
  EXPECT_NEAR(result.final_bottleneck(),
              bottleneck_drain(result.solutions, bandwidth,
                               s.failure.failed_rack),
              1e-12);
}

TEST_P(WeightedSweep, EverySolutionRemainsValidMinimal) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  auto s = make_scenario(cfg, 60, std::get<1>(GetParam()) + 5);
  std::vector<double> bandwidth(s.placement.topology().num_racks(), 1.0);
  bandwidth.back() = 4.0;
  const auto result = balance_weighted(s.placement, s.censuses, bandwidth, 60);
  for (std::size_t j = 0; j < s.censuses.size(); ++j) {
    const auto& census = s.censuses[j];
    EXPECT_TRUE(is_valid_minimal_for(census.k, census.replacement_rack,
                                     census.surviving.ranked(),
                                     result.solutions[j].rack_set));
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, WeightedSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3u, 71u)));

TEST(WeightedBalancer, ShiftsLoadTowardFastRacks) {
  // A rack with 10x the bandwidth should end up carrying at least as many
  // partial chunks as any slow rack, whenever substitutions are possible.
  auto s = make_scenario(cluster::cfs3(), 150, 9);
  const auto racks = s.placement.topology().num_racks();
  std::vector<double> bandwidth(racks, 1.0);
  // Pick a fast rack that is not the failed one.
  cluster::RackId fast = s.failure.failed_rack == 0 ? 1 : 0;
  bandwidth[fast] = 10.0;

  const auto result =
      balance_weighted(s.placement, s.censuses, bandwidth, 300);
  const auto traffic = multi_traffic(result.solutions, racks,
                                     s.failure.failed_rack);
  for (cluster::RackId i = 0; i < racks; ++i) {
    if (i == s.failure.failed_rack || i == fast) continue;
    // Drain-time balance: fast rack's time t/10 should not exceed any slow
    // rack's time t/1 by the end (within one substitution quantum).
    EXPECT_LE(static_cast<double>(traffic.per_rack_chunks[fast]) / 10.0,
              static_cast<double>(traffic.per_rack_chunks[i]) + 1.0)
        << "rack " << i;
  }
  EXPECT_LE(result.final_bottleneck(), result.initial_bottleneck() + 1e-12);
}

TEST(WeightedBalancer, MultiFailureMovesEveryPartialOfAStripe) {
  // Two failed nodes: a stripe that lost both ships two partials per
  // accessed rack, and a substitution moves both.  The bottleneck still
  // never rises and total traffic is unchanged.
  util::Rng rng(41);
  const auto cfg = cluster::cfs3();
  const auto p =
      Placement::random(cfg.topology(), cfg.k, cfg.m, 120, rng);
  const auto failure = make_multi_failure(p, {0, 6});
  const auto censuses = build_multi_censuses(p, failure);
  std::vector<double> bandwidth(p.topology().num_racks(), 1.0);
  bandwidth[1] = 3.0;
  const auto result = balance_weighted(p, censuses, bandwidth, 200);
  for (std::size_t i = 1; i < result.bottleneck_trace.size(); ++i) {
    EXPECT_LE(result.bottleneck_trace[i],
              result.bottleneck_trace[i - 1] + 1e-12);
  }
  const auto racks = p.topology().num_racks();
  EXPECT_EQ(
      multi_traffic(result.solutions, racks, failure.replacement_rack)
          .total_chunks(),
      multi_traffic(balance_multi(p, censuses, 0).solutions, racks,
                    failure.replacement_rack)
          .total_chunks());
  EXPECT_DOUBLE_EQ(result.final_bottleneck(),
                   bottleneck_drain(result.solutions, bandwidth,
                                    failure.replacement_rack));
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    EXPECT_TRUE(is_valid_minimal_for(censuses[j].k, failure.replacement_rack,
                                     censuses[j].surviving.ranked(),
                                     result.solutions[j].rack_set));
  }
}

}  // namespace
}  // namespace car::recovery
