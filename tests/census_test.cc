// Per-stripe rack census of a single-node failure (paper §IV-B), built as
// the one-node case of a multi-failure.
#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::Topology;

/// Reproduces the paper's Figure 4 layout: five racks of four nodes, the
/// (k=8, m=6) code, first stripe with census (4, 1, 3, 2, 4), failure of the
/// first node in A1.
Placement figure4_placement() {
  Placement p(Topology({4, 4, 4, 4, 4}), 8, 6);
  // Rack A1 -> nodes 0..3, A2 -> 4..7, A3 -> 8..11, A4 -> 12..15,
  // A5 -> 16..19.  Chunk-to-node assignment: 4 chunks in A1, 1 in A2,
  // 3 in A3, 2 in A4, 4 in A5 = 14 chunks.
  p.add_stripe({0, 1, 2, 3,       // A1: 4 chunks (chunk 0 on failing node 0)
                4,                // A2: 1 chunk
                8, 9, 10,         // A3: 3 chunks
                12, 13,           // A4: 2 chunks
                16, 17, 18, 19}); // A5: 4 chunks
  return p;
}

/// Censuses of the failure of `node` alone.
std::vector<MultiStripeCensus> single_failure(const Placement& p,
                                              cluster::NodeId node) {
  return build_multi_censuses(p, make_multi_failure(p, {node}));
}

/// c'_{i,j} per rack, from the sparse census.
std::vector<std::size_t> dense(const MultiStripeCensus& census,
                               std::size_t num_racks) {
  std::vector<std::size_t> out(num_racks, 0);
  for (const RackCount& entry : census.surviving.ranked()) {
    out[entry.rack] = entry.count;
  }
  return out;
}

TEST(Census, Figure4CountsMatchThePaper) {
  const auto p = figure4_placement();
  const auto censuses = single_failure(p, 0);
  ASSERT_EQ(censuses.size(), 1u);

  const auto& census = censuses[0];
  EXPECT_EQ(census.k, 8u);
  EXPECT_EQ(census.replacement_rack, 0u);
  EXPECT_EQ(census.lost_chunks, (std::vector<std::size_t>{0}));
  EXPECT_EQ(p.rack_census(0), (std::vector<std::size_t>{4, 1, 3, 2, 4}));
  EXPECT_EQ(dense(census, 5), (std::vector<std::size_t>{3, 1, 3, 2, 4}));
  // Ranked: more chunks first, ties by lower rack id.
  const auto ranked = census.surviving.ranked();
  EXPECT_EQ(std::vector<RackCount>(ranked.begin(), ranked.end()),
            (std::vector<RackCount>{{4, 4}, {0, 3}, {2, 3}, {3, 2}, {1, 1}}));
}

TEST(Census, BuildCensusesCoversEveryLostChunk) {
  util::Rng rng(21);
  const auto cfg = cluster::cfs2();
  const auto p = Placement::random(cfg.topology(), cfg.k, cfg.m, 30, rng);
  const auto scenario = cluster::inject_random_failure(p, rng);
  const auto censuses = single_failure(p, scenario.failed_node);
  ASSERT_EQ(censuses.size(), scenario.lost.size());
  for (std::size_t i = 0; i < censuses.size(); ++i) {
    EXPECT_EQ(censuses[i].stripe, scenario.lost[i].stripe);
    EXPECT_EQ(censuses[i].lost_chunks,
              (std::vector<std::size_t>{scenario.lost[i].chunk_index}));
    EXPECT_EQ(censuses[i].replacement_rack, scenario.failed_rack);
    // Every chunk but the lost one survives.
    std::size_t total = 0;
    for (const RackCount& entry : censuses[i].surviving.ranked()) {
      total += entry.count;
    }
    EXPECT_EQ(total, cfg.k + cfg.m - 1);
  }
}

TEST(Census, SurvivingDecrementsOnlyTheFailedRack) {
  util::Rng rng(22);
  const auto cfg = cluster::cfs3();
  const auto p = Placement::random(cfg.topology(), cfg.k, cfg.m, 50, rng);
  const auto scenario = cluster::inject_random_failure(p, rng);
  const auto racks = p.topology().num_racks();
  for (const auto& census : single_failure(p, scenario.failed_node)) {
    const auto chunks = p.rack_census(census.stripe);
    const auto surviving = dense(census, racks);
    for (cluster::RackId r = 0; r < racks; ++r) {
      if (r == census.replacement_rack) {
        EXPECT_EQ(surviving[r] + 1, chunks[r]);
      } else {
        EXPECT_EQ(surviving[r], chunks[r]);
      }
    }
  }
}

TEST(Census, ScenarioClaimingALossInAnEmptyRackThrows) {
  // Rack 7 (nodes 14, 15) hosts no chunk of the stripe, so a census of the
  // stripe under the failure of node 14 is inconsistent.
  Placement wide(Topology({2, 2, 2, 2, 2, 2, 2, 2}), 8, 6);
  wide.add_stripe({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13});
  const cluster::StripeId stripe = 0;
  EXPECT_THROW(build_multi_censuses(wide, make_multi_failure(wide, {14}),
                                    std::span<const cluster::StripeId>(
                                        &stripe, 1)),
               std::logic_error);
  EXPECT_TRUE(single_failure(wide, 14).empty());
}

}  // namespace
}  // namespace car::recovery
