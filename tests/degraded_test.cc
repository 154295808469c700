#include "recovery/degraded.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "emul/cluster.h"

namespace car::recovery {
namespace {

using cluster::Placement;

Placement make_placement(const cluster::CfsConfig& cfg, std::size_t stripes,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
}

TEST(DegradedRead, CensusAnchorsAtTheReaderRack) {
  const auto cfg = cluster::cfs1();
  const auto p = make_placement(cfg, 10, 1);
  const DegradedReadRequest request{3, 2, /*reader=*/9};
  const auto census = build_degraded_census(p, request);
  EXPECT_EQ(census.stripe, 3u);
  EXPECT_EQ(census.lost_chunks, (std::vector<std::size_t>{2}));
  EXPECT_EQ(census.replacement_rack, p.topology().rack_of(9));
  EXPECT_EQ(census.k, cfg.k);
  std::size_t total = 0;
  for (const RackCount& entry : census.surviving.ranked()) {
    total += entry.count;
  }
  EXPECT_EQ(total, cfg.k + cfg.m - 1);  // all chunks except the read one
  EXPECT_THROW(build_degraded_census(p, {0, 99, 0}), std::invalid_argument);
}

class DegradedReadSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DegradedReadSweep, CarReadNeverShipsMoreCrossRackBytesThanDirect) {
  const auto cfg = cluster::paper_configs()[std::get<0>(GetParam())];
  const auto p = make_placement(cfg, 20, std::get<1>(GetParam()));
  const rs::Code code(cfg.k, cfg.m);
  util::Rng rng(std::get<1>(GetParam()) + 7);
  constexpr std::uint64_t kChunk = 4096;

  for (cluster::StripeId s = 0; s < p.num_stripes(); s += 4) {
    const DegradedReadRequest request{
        s, static_cast<std::size_t>(rng.next_below(cfg.k + cfg.m)),
        static_cast<cluster::NodeId>(
            rng.next_below(p.topology().num_nodes()))};
    const auto car = plan_degraded_read_car(p, code, request, kChunk);
    const auto direct =
        plan_degraded_read_direct(p, code, request, kChunk, rng);
    EXPECT_LE(car.cross_rack_bytes(), direct.cross_rack_bytes())
        << "stripe " << s;
    ASSERT_EQ(car.outputs.size(), 1u);
    ASSERT_EQ(direct.outputs.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, DegradedReadSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(21u, 22u)));

TEST(DegradedRead, EmulatedReadDeliversTheExactChunkToTheReader) {
  const auto cfg = cluster::cfs2();
  const auto p = make_placement(cfg, 6, 31);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 16 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(32);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  util::Rng rng(33);
  for (cluster::StripeId s = 0; s < p.num_stripes(); ++s) {
    const std::size_t chunk = rng.next_below(cfg.k + cfg.m);
    // Reader is any node that does not host the chunk.
    cluster::NodeId reader = p.node_of(s, chunk);
    while (reader == p.node_of(s, chunk)) {
      reader = rng.next_below(p.topology().num_nodes());
    }
    const DegradedReadRequest request{s, chunk, reader};

    // The chunk's host is "unavailable": run the CAR degraded read and check
    // the reader ends up with the exact bytes.
    const auto plan = plan_degraded_read_car(p, code, request, kChunk);
    cluster.execute(plan);
    const auto* got = cluster.find_step_output(reader,
                                               plan.outputs[0].step_id);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, originals[s][chunk]) << "stripe " << s;
  }
}

TEST(DegradedRead, DirectReadAlsoReconstructsCorrectly) {
  const auto cfg = cluster::cfs1();
  const auto p = make_placement(cfg, 4, 41);
  const rs::Code code(cfg.k, cfg.m);
  constexpr std::uint64_t kChunk = 8 * 1024;

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng data_rng(42);
  const auto originals = cluster.populate(p, code, kChunk, data_rng);

  util::Rng rng(43);
  const DegradedReadRequest request{1, 0, /*reader=*/8};
  const auto plan = plan_degraded_read_direct(p, code, request, kChunk, rng);
  cluster.execute(plan);
  const auto* got = cluster.find_step_output(8, plan.outputs[0].step_id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, originals[1][0]);
}

TEST(DegradedRead, ReaderInTheHostRackExploitsLocalSurvivors) {
  // Hand-built layout: reader shares a rack with several survivors, so the
  // CAR read should pull mostly local chunks and only ship partials from
  // the minimum number of remote racks.
  cluster::Placement p(cluster::Topology({3, 3, 3}), 4, 3);
  p.add_stripe({0, 1, 2, 3, 4, 5, 6});  // A1: 3 chunks, A2: 3, A3: 1
  const rs::Code code(4, 3);
  const DegradedReadRequest request{0, 0, /*reader=*/1};  // both in A1
  const auto plan = plan_degraded_read_car(p, code, request, 1024);
  // A1 offers 2 surviving chunks (1 and 2); k=4 needs 2 more, A2 has 3 ->
  // one remote rack, one partial chunk across racks.
  EXPECT_EQ(plan.cross_rack_bytes(), 1024u);
}

TEST(DegradedRead, ZeroChunkSizeRejected) {
  const auto cfg = cluster::cfs1();
  const auto p = make_placement(cfg, 2, 51);
  const rs::Code code(cfg.k, cfg.m);
  util::Rng rng(52);
  EXPECT_THROW(plan_degraded_read_car(p, code, {0, 0, 1}, 0),
               std::invalid_argument);
  EXPECT_THROW(plan_degraded_read_direct(p, code, {0, 0, 1}, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace car::recovery
