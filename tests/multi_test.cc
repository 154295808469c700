#include "recovery/multi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "util/check.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::Topology;

Placement make_placement(const cluster::CfsConfig& cfg, std::size_t stripes,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
}

TEST(MultiFailure, ScenarioValidation) {
  const auto cfg = cluster::cfs1();
  const auto p = make_placement(cfg, 5, 1);
  EXPECT_THROW(make_multi_failure(p, {}), std::invalid_argument);
  EXPECT_THROW(make_multi_failure(p, {0, 0}), std::invalid_argument);
  EXPECT_THROW(make_multi_failure(p, {99}), std::invalid_argument);
  const auto scenario = make_multi_failure(p, {3, 7});
  EXPECT_EQ(scenario.replacement, 3u);
  EXPECT_EQ(scenario.replacement_rack, p.topology().rack_of(3));
  EXPECT_TRUE(scenario.is_failed(7));
  EXPECT_FALSE(scenario.is_failed(1));
}

TEST(MultiFailure, CensusCountsLostAndSurvivingConsistently) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 40, 2);
  const auto scenario = make_multi_failure(p, {0, 5});
  const auto censuses = build_multi_censuses(p, scenario);
  ASSERT_FALSE(censuses.empty());
  for (const auto& census : censuses) {
    std::size_t surviving = 0;
    for (const RackCount& entry : census.surviving.ranked()) {
      EXPECT_GT(entry.count, 0u);
      surviving += entry.count;
    }
    EXPECT_EQ(surviving + census.lost_chunks.size(), cfg.k + cfg.m);
    EXPECT_GE(census.lost_chunks.size(), 1u);
    EXPECT_LE(census.lost_chunks.size(), 2u);
    EXPECT_TRUE(std::is_sorted(census.lost_chunks.begin(),
                               census.lost_chunks.end()));
    for (std::size_t c : census.lost_chunks) {
      EXPECT_TRUE(scenario.is_failed(p.node_of(census.stripe, c)));
    }
  }
}

TEST(RackCounts, KeepsRankOrderInlineAndSpilled) {
  util::Rng rng(5);
  bool spilled = false;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t racks = 1 + rng.next_below(40);
    std::vector<std::size_t> dense(racks, 0);
    RackCounts counts;
    const std::size_t adds = rng.next_below(80);
    for (std::size_t i = 0; i < adds; ++i) {
      const auto rack = static_cast<cluster::RackId>(rng.next_below(racks));
      ++dense[rack];
      counts.add(rack);
    }
    std::vector<RackCount> want;
    for (cluster::RackId rack = 0; rack < racks; ++rack) {
      if (dense[rack] > 0) {
        want.push_back({static_cast<std::uint32_t>(rack),
                        static_cast<std::uint32_t>(dense[rack])});
      }
    }
    std::sort(want.begin(), want.end(),
              [](const RackCount& a, const RackCount& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.rack < b.rack;
              });
    EXPECT_TRUE(std::ranges::equal(counts.ranked(), want)) << "trial " << trial;
    spilled |= want.size() > RackCounts::kInline;
    const RackCounts copy = counts;
    EXPECT_EQ(copy, counts);
  }
  EXPECT_TRUE(spilled);
}

TEST(MultiFailure, SparseCoreAnswersInfeasibleQueriesWithoutThrowing) {
  const std::vector<RackCount> ranked = {{2, 2}, {0, 1}, {1, 1}};
  EXPECT_EQ(min_racks_for(4, 0, ranked), 2u);
  EXPECT_EQ(default_rack_set(4, 0, ranked), (RackSet{{1, 2}}));
  EXPECT_TRUE(is_valid_minimal_for(4, 0, ranked, RackSet{{1, 2}}));
  // Out of reach: a false answer, not an exception.
  EXPECT_FALSE(is_valid_minimal_for(5, 0, ranked, RackSet{{1, 2}}));
  EXPECT_THROW(min_racks_for(5, 0, ranked), std::invalid_argument);
  // A rack the census does not list contributes nothing.
  EXPECT_FALSE(is_valid_minimal_for(4, 0, ranked, RackSet{{2, 7}}));
}

TEST(MultiFailure, MaterializeRejectsValidButOversizedRackSet) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 60, 12);
  const auto scenario = make_multi_failure(p, {0});
  const auto censuses = build_multi_censuses(p, scenario);
  bool checked = false;
  for (const auto& census : censuses) {
    const auto ranked = census.surviving.ranked();
    RackSet set = default_rack_set(census.k, census.replacement_rack, ranked);
    const auto extra = std::find_if(
        ranked.begin(), ranked.end(), [&](const RackCount& entry) {
          return entry.rack != census.replacement_rack &&
                 !set.contains(entry.rack);
        });
    if (extra == ranked.end()) continue;
    const auto minimal = materialize_multi(p, census, set);
    EXPECT_EQ(minimal.chunks.size(), census.k);
    // Enough chunks, distinct non-home racks — but one rack too many, so
    // a pick would read nothing: rejected by the contract check.
    set.racks.push_back(extra->rack);
    EXPECT_FALSE(is_valid_minimal_for(census.k, census.replacement_rack,
                                      ranked, set));
    try {
      (void)materialize_multi(p, census, set);
      ADD_FAILURE() << "oversized rack set accepted";
    } catch (const util::CheckError& error) {
      EXPECT_NE(std::string(error.what()).find("not a valid minimal solution"),
                std::string::npos)
          << error.what();
    }
    checked = true;
    break;
  }
  EXPECT_TRUE(checked) << "no stripe with a spare rack in this placement";
}

TEST(MultiFailure, UnrecoverableStripeThrows) {
  // Force a stripe losing more than m chunks: fail m+1 of its hosts.
  const auto cfg = cluster::cfs1();  // m = 3
  const auto p = make_placement(cfg, 10, 4);
  // The first stripe is scanned on the calling thread, the last one on a
  // worker thread when sharded; either way every thread is joined and the
  // error reaches the caller.
  for (const cluster::StripeId stripe : {cluster::StripeId{0},
                                         cluster::StripeId{9}}) {
    const auto hosts = p.stripe(stripe);
    std::vector<cluster::NodeId> victims(hosts.begin(),
                                         hosts.begin() + cfg.m + 1);
    const auto scenario = make_multi_failure(p, victims);
    for (const std::size_t shards : {1u, 4u}) {
      EXPECT_THROW(build_multi_censuses(p, scenario, shards),
                   std::invalid_argument)
          << "stripe " << stripe << " shards " << shards;
    }
  }
}

class MultiFailureSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(MultiFailureSweep, SolutionsAreMinimalAndCompleteAndBalanced) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  const int failures = std::get<1>(GetParam());
  const auto p = make_placement(cfg, 50, std::get<2>(GetParam()));
  util::Rng rng(std::get<2>(GetParam()) + 100);

  const auto victims =
      rng.sample_indices(p.topology().num_nodes(), failures);
  std::vector<cluster::NodeId> nodes(victims.begin(), victims.end());
  const auto scenario = make_multi_failure(p, nodes);

  std::vector<MultiStripeCensus> censuses;
  try {
    censuses = build_multi_censuses(p, scenario);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "random failure exceeded code tolerance";
  }
  if (censuses.empty()) GTEST_SKIP();

  const auto result = balance_multi(p, censuses, 50);
  ASSERT_EQ(result.solutions.size(), censuses.size());

  for (std::size_t j = 0; j < censuses.size(); ++j) {
    const auto& solution = result.solutions[j];
    // Exactly k distinct survivors, none of them lost.
    const auto& all = solution.chunks;
    EXPECT_EQ(all.size(), censuses[j].k);
    for (std::size_t c : all) {
      EXPECT_FALSE(std::binary_search(censuses[j].lost_chunks.begin(),
                                      censuses[j].lost_chunks.end(), c));
      EXPECT_FALSE(scenario.is_failed(p.node_of(censuses[j].stripe, c)));
    }
    // Rack set is a valid minimal selection.
    EXPECT_TRUE(is_valid_minimal_for(censuses[j].k,
                                     censuses[j].replacement_rack,
                                     censuses[j].surviving.ranked(),
                                     solution.rack_set));
  }

  // Lambda trace is monotone non-increasing.
  for (std::size_t i = 1; i < result.lambda_trace.size(); ++i) {
    EXPECT_LE(result.lambda_trace[i], result.lambda_trace[i - 1] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, MultiFailureSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(11u, 57u)));

TEST(MultiFailure, EmulatedRecoveryIsBitExactForDoubleFailure) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 12, 8);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 32 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(77);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  const auto scenario = make_multi_failure(p, {1, 9});
  cluster.erase_node(1);
  cluster.erase_node(9);
  const auto censuses = build_multi_censuses(p, scenario);
  ASSERT_FALSE(censuses.empty());

  const auto balanced = balance_multi(p, censuses, 50);
  const auto plan = build_multi_car_plan(p, code, balanced.solutions, kChunk,
                                         scenario.replacement);
  cluster.execute(plan);

  for (const auto& census : censuses) {
    for (std::size_t lost : census.lost_chunks) {
      const auto* rec =
          cluster.find_chunk(scenario.replacement, census.stripe, lost);
      ASSERT_NE(rec, nullptr) << "stripe " << census.stripe;
      EXPECT_EQ(*rec, originals[census.stripe][lost]);
    }
  }
}

TEST(MultiFailure, EmulatedRrRecoveryIsBitExact) {
  const auto cfg = cluster::cfs3();
  const auto p = make_placement(cfg, 8, 9);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 16 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(78);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  const auto scenario = make_multi_failure(p, {2, 11});
  cluster.erase_node(2);
  cluster.erase_node(11);
  const auto censuses = build_multi_censuses(p, scenario);
  if (censuses.empty()) GTEST_SKIP();

  util::Rng rr_rng(79);
  const auto rr = plan_multi_rr(p, censuses, rr_rng);
  const auto plan =
      build_multi_rr_plan(p, code, rr, kChunk, scenario.replacement);
  cluster.execute(plan);

  for (const auto& census : censuses) {
    for (std::size_t lost : census.lost_chunks) {
      const auto* rec =
          cluster.find_chunk(scenario.replacement, census.stripe, lost);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(*rec, originals[census.stripe][lost]);
    }
  }
}

TEST(MultiFailure, WholeRackFailureIsAlwaysRecoverable) {
  // The placement quota c_{i,j} <= m exists precisely so that losing an
  // entire rack never exceeds the code's tolerance (paper §IV-B).  Fail
  // every node of each rack in turn; build_multi_censuses must never throw
  // and recovery must be planable with the replacement in another rack.
  for (int cfg_index = 0; cfg_index < 3; ++cfg_index) {
    const auto cfg = cluster::paper_configs()[cfg_index];
    const auto p = make_placement(cfg, 40, 1000 + cfg_index);
    for (cluster::RackId rack = 0; rack < p.topology().num_racks(); ++rack) {
      auto victims = p.topology().nodes_in_rack(rack);
      // Rebuild onto a node outside the failed rack.
      const cluster::NodeId replacement =
          p.topology().rack_range((rack + 1) % p.topology().num_racks())
              .first;
      auto scenario = make_multi_failure(p, victims);
      scenario.replacement = replacement;
      scenario.replacement_rack = p.topology().rack_of(replacement);

      std::vector<MultiStripeCensus> censuses;
      ASSERT_NO_THROW(censuses = build_multi_censuses(p, scenario))
          << cfg.name << " rack " << rack;
      if (censuses.empty()) continue;
      const auto balanced = balance_multi(p, censuses, 50);
      ASSERT_EQ(balanced.solutions.size(), censuses.size());
      for (std::size_t j = 0; j < censuses.size(); ++j) {
        EXPECT_LE(censuses[j].lost_chunks.size(), cfg.m);
        EXPECT_EQ(balanced.solutions[j].chunks.size(), cfg.k);
      }
    }
  }
}

TEST(MultiFailure, TrafficAccountingMatchesPlanBytes) {
  const auto cfg = cluster::cfs3();
  const auto p = make_placement(cfg, 30, 10);
  const rs::Code code(cfg.k, cfg.m);
  const auto scenario = make_multi_failure(p, {0, 7});
  const auto censuses = build_multi_censuses(p, scenario);
  const auto balanced = balance_multi(p, censuses, 50);
  constexpr std::uint64_t kChunk = 4096;
  const auto plan = build_multi_car_plan(p, code, balanced.solutions, kChunk,
                                         scenario.replacement);
  const auto summary = multi_traffic(
      balanced.solutions, p.topology().num_racks(), scenario.replacement_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));

  util::Rng rng(11);
  const auto rr = plan_multi_rr(p, censuses, rng);
  const auto rr_plan =
      build_multi_rr_plan(p, code, rr, kChunk, scenario.replacement);
  const auto rr_summary =
      multi_rr_traffic(p, rr, scenario.replacement_rack);
  EXPECT_EQ(rr_plan.cross_rack_bytes(), rr_summary.total_bytes(kChunk));
}

}  // namespace
}  // namespace car::recovery
