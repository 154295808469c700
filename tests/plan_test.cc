#include "recovery/plan.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"

namespace car::recovery {
namespace {

using cluster::Placement;

struct Fixture {
  cluster::CfsConfig cfg;
  Placement placement;
  rs::Code code;
  cluster::FailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;

  explicit Fixture(int cfg_index, std::uint64_t seed, std::size_t stripes = 30)
      : cfg(cluster::paper_configs()[cfg_index]),
        placement(make_placement(cfg, stripes, seed)),
        code(cfg.k, cfg.m) {
    util::Rng rng(seed + 1);
    scenario = cluster::inject_random_failure(placement, rng);
    censuses = build_multi_censuses(
        placement, make_multi_failure(placement, {scenario.failed_node}));
  }

  static Placement make_placement(const cluster::CfsConfig& cfg,
                                  std::size_t stripes, std::uint64_t seed) {
    util::Rng rng(seed);
    return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  }
};

void check_dag(const RecoveryPlan& plan) {
  // Deps reference earlier steps only (the builders emit topologically).
  for (const auto& step : plan.steps) {
    for (std::size_t dep : step.deps) {
      EXPECT_LT(dep, step.id) << "dependency must precede the step";
    }
  }
}

class PlanSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlanSweep, CarPlanMatchesAnalyticTrafficAccounting) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto balanced = balance_multi(f.placement, f.censuses, 50);
  constexpr std::uint64_t kChunk = 1 << 20;
  const auto plan =
      build_multi_car_plan(f.placement, f.code, balanced.solutions, kChunk,
                           f.scenario.failed_node);
  check_dag(plan);

  const auto summary =
      multi_traffic(balanced.solutions, f.placement.topology().num_racks(),
                    f.scenario.failed_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));

  const auto per_rack = plan.per_rack_cross_bytes(f.placement.topology());
  for (cluster::RackId r = 0; r < per_rack.size(); ++r) {
    EXPECT_EQ(per_rack[r], summary.per_rack_chunks[r] * kChunk)
        << "rack " << r;
  }
  EXPECT_EQ(plan.outputs.size(), f.censuses.size());
}

TEST_P(PlanSweep, RrPlanMatchesAnalyticTrafficAccounting) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  util::Rng rng(std::get<1>(GetParam()) + 5);
  const auto rr = plan_multi_rr(f.placement, f.censuses, rng);
  constexpr std::uint64_t kChunk = 1 << 18;
  const auto plan =
      build_multi_rr_plan(f.placement, f.code, rr, kChunk,
                          f.scenario.failed_node);
  check_dag(plan);

  const auto summary =
      multi_rr_traffic(f.placement, rr, f.scenario.failed_rack);
  EXPECT_EQ(plan.cross_rack_bytes(), summary.total_bytes(kChunk));
  EXPECT_EQ(plan.outputs.size(), f.censuses.size());

  // RR ships each fetched chunk once and computes once per stripe.
  std::size_t expected_transfers = 0;
  for (const auto& solution : rr) {
    for (std::size_t chunk : solution.chunk_indices) {
      expected_transfers +=
          f.placement.node_of(solution.stripe, chunk) != f.scenario.failed_node;
    }
  }
  EXPECT_EQ(plan.num_transfers(), expected_transfers);
  EXPECT_EQ(plan.num_computes(), rr.size());
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, PlanSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(11u, 47u)));

TEST(CarPlan, StructurePerStripe) {
  Fixture f(0, 3, 5);
  const auto solutions = balance_multi(f.placement, f.censuses, 0).solutions;
  const auto plan = build_multi_car_plan(f.placement, f.code, solutions, 4096,
                                         f.scenario.failed_node);

  // Per stripe: one partial-decode compute per contributing rack, one
  // partial shipment per contributing rack, one final combine.
  std::size_t expected_computes = 0;
  std::size_t expected_partial_ships = 0;
  for (const auto& s : solutions) {
    expected_computes += s.picks.size() + 1;  // partials + final XOR
    expected_partial_ships += s.picks.size();
  }
  EXPECT_EQ(plan.num_computes(), expected_computes);

  // Intra-rack gather transfers: picked chunks not hosted by the aggregator.
  std::size_t gather = 0;
  for (const auto& s : solutions) {
    for (const auto& pick : s.picks) gather += pick.count - 1;
  }
  EXPECT_EQ(plan.num_transfers(), gather + expected_partial_ships);

  // The final combine for each stripe runs on the replacement and XORs one
  // partial per contributing rack.
  for (const auto& out : plan.outputs) {
    const auto& step = plan.steps[out.step_id];
    EXPECT_EQ(step.kind, StepKind::kCompute);
    EXPECT_EQ(step.node, f.scenario.failed_node);
    for (const auto& in : step.inputs) {
      EXPECT_EQ(in.coeff, 1) << "final combine must be a pure XOR";
      EXPECT_EQ(in.buffer.kind, BufferRef::Kind::kStepOutput);
    }
  }
}

TEST(Plan, ZeroChunkSizeRejected) {
  Fixture f(0, 4, 2);
  const auto solutions = balance_multi(f.placement, f.censuses, 0).solutions;
  EXPECT_THROW(build_multi_car_plan(f.placement, f.code, solutions, 0,
                                    f.scenario.failed_node),
               std::invalid_argument);
  util::Rng rng(8);
  const auto rr = plan_multi_rr(f.placement, f.censuses, rng);
  EXPECT_THROW(
      build_multi_rr_plan(f.placement, f.code, rr, 0, f.scenario.failed_node),
      std::invalid_argument);
}

TEST(Plan, IntraPlusCrossEqualsAllTransferBytes) {
  Fixture f(2, 9, 20);
  const auto solutions = balance_multi(f.placement, f.censuses, 0).solutions;
  const auto plan = build_multi_car_plan(f.placement, f.code, solutions, 1024,
                                         f.scenario.failed_node);
  std::uint64_t all = 0;
  for (const auto& step : plan.steps) {
    if (step.kind == StepKind::kTransfer) all += step.bytes;
  }
  EXPECT_EQ(plan.cross_rack_bytes() + plan.intra_rack_bytes(), all);
}

TEST(PlanBuilder, RejectsMalformedSteps) {
  const cluster::Topology topology({2, 2});
  PlanBuilder b{{}, topology};
  b.plan.chunk_size = 64;
  const std::size_t first =
      b.add_transfer(0, 0, 2, BufferRef::chunk(0, 0), {});
  EXPECT_EQ(first, 0u);
  EXPECT_TRUE(b.plan.steps[0].cross_rack);
  EXPECT_EQ(b.plan.steps[0].bytes, 64u);

  // A dependency on a step not yet appended would allow a cycle.
  EXPECT_THROW(b.add_transfer(0, 0, 1, BufferRef::chunk(0, 0), {1}),
               std::invalid_argument);
  EXPECT_THROW(b.add_compute(0, 1, {{BufferRef::chunk(0, 1), 1}}, {5}),
               std::invalid_argument);
  // Node ids must exist.
  EXPECT_THROW(b.add_transfer(0, 4, 0, BufferRef::chunk(0, 0), {}),
               std::invalid_argument);
  EXPECT_THROW(b.add_transfer(0, 0, 9, BufferRef::chunk(0, 0), {}),
               std::invalid_argument);
  EXPECT_THROW(b.add_compute(0, 4, {{BufferRef::chunk(0, 1), 1}}, {}),
               std::invalid_argument);
  // A compute combines at least one buffer.
  EXPECT_THROW(b.add_compute(0, 1, {}, {first}), std::invalid_argument);
  // Rejected steps leave the plan untouched.
  ASSERT_EQ(b.plan.steps.size(), 1u);

  const std::size_t combine = b.add_compute(
      0, 2, {{BufferRef::step(first), 1}, {BufferRef::chunk(0, 2), 3}},
      {first});
  EXPECT_EQ(combine, 1u);
  EXPECT_EQ(b.plan.steps[1].bytes, 128u);
}

}  // namespace
}  // namespace car::recovery
