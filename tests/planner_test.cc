// Materialisation of rack-level solutions into chunk-level recovery picks
// (materialize_multi) under a single-node failure.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::Topology;

Placement paper_placement(const cluster::CfsConfig& cfg, std::size_t stripes,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
}

/// Censuses of the failure of `node` alone.
std::vector<MultiStripeCensus> single_failure(const Placement& p,
                                              cluster::NodeId node) {
  return build_multi_censuses(p, make_multi_failure(p, {node}));
}

class MaterializeSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MaterializeSweep, EverySolutionReadsExactlyKChunksAndUsesEveryRack) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  const auto p = paper_placement(cfg, 40, std::get<1>(GetParam()));
  util::Rng rng(std::get<1>(GetParam()) + 99);
  const auto scenario = cluster::inject_random_failure(p, rng);

  for (const auto& census : single_failure(p, scenario.failed_node)) {
    ASSERT_EQ(census.lost_count(), 1u);
    const std::size_t lost = census.lost_chunks.front();
    for (const auto& set : enumerate_rack_sets(
             census.k, census.replacement_rack, census.surviving.ranked())) {
      const auto solution = materialize_multi(p, census, set);
      EXPECT_EQ(solution.stripe, census.stripe);
      EXPECT_EQ(solution.lost_chunks, census.lost_chunks);

      // Exactly k distinct surviving chunks, never the lost one.
      const auto& all = solution.chunks;
      EXPECT_EQ(all.size(), census.k);
      auto sorted = all;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
      EXPECT_EQ(std::find(all.begin(), all.end(), lost), all.end());

      // Every pick lives in its claimed rack and is non-empty.
      for (const auto& pick : solution.picks) {
        EXPECT_GT(pick.count, 0u);
        for (std::size_t c : solution.chunks_of(pick)) {
          EXPECT_EQ(p.topology().rack_of(p.node_of(census.stripe, c)),
                    pick.rack);
        }
      }

      // Accessed intact racks = rack set; each contributes >= 1 chunk.
      std::vector<cluster::RackId> intact;
      for (const auto& pick : solution.picks) {
        if (pick.rack != census.replacement_rack) intact.push_back(pick.rack);
      }
      std::sort(intact.begin(), intact.end());
      EXPECT_EQ(intact, solution.rack_set.racks);
      EXPECT_EQ(solution.cross_rack_chunks(), set.racks.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, MaterializeSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(7u, 1234u)));

TEST(Materialize, UsesFailedRackSurvivorsFirst) {
  // Hand-crafted layout: failed rack keeps 2 survivors; they must be used
  // before intact-rack chunks are pulled.
  Placement p(Topology({3, 3, 3}), 4, 3);
  p.add_stripe({0, 1, 2, 3, 4, 5, 6});  // A1: 3 chunks, A2: 3, A3: 1
  const auto census = single_failure(p, 0).front();
  const auto ranked = census.surviving.ranked();
  // local survivors = 2, k = 4 -> need 2 more, intact best = A2 (3) -> d=1.
  EXPECT_EQ(min_racks_for(census.k, census.replacement_rack, ranked), 1u);
  const auto solution = materialize_multi(
      p, census, default_rack_set(census.k, census.replacement_rack, ranked));
  ASSERT_EQ(solution.picks.size(), 2u);
  EXPECT_EQ(solution.picks[0].rack, 0u);
  const auto local = solution.chunks_of(solution.picks[0]);
  EXPECT_EQ(std::vector<std::size_t>(local.begin(), local.end()),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(solution.picks[1].rack, 1u);
  EXPECT_EQ(solution.picks[1].count, 2u);  // trimmed from 3
}

TEST(Materialize, RejectsInvalidRackSets) {
  Placement p(Topology({3, 3, 3}), 4, 3);
  p.add_stripe({0, 1, 2, 3, 4, 5, 6});
  const auto census = single_failure(p, 0).front();
  EXPECT_THROW(materialize_multi(p, census, RackSet{{2}}),
               std::invalid_argument);
  EXPECT_THROW(materialize_multi(p, census, RackSet{{1, 2}}),
               std::invalid_argument);
}

TEST(PlanCarInitial, OneSolutionPerLostChunk) {
  // Algorithm 2 with no substitution leaves every stripe on its default
  // (most-chunks-first) rack set.
  const auto cfg = cluster::cfs3();
  const auto p = paper_placement(cfg, 100, 5);
  util::Rng rng(6);
  const auto scenario = cluster::inject_random_failure(p, rng);
  const auto censuses = single_failure(p, scenario.failed_node);
  const auto solutions = balance_multi(p, censuses, 0).solutions;
  ASSERT_EQ(solutions.size(), censuses.size());
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const auto& census = censuses[i];
    EXPECT_EQ(solutions[i].stripe, census.stripe);
    EXPECT_EQ(solutions[i].rack_set,
              default_rack_set(census.k, census.replacement_rack,
                               census.surviving.ranked()));
  }
}

}  // namespace
}  // namespace car::recovery
