// The materialised slice lowering (slice_oracle.h) is the oracle the
// PlanArena differentials compare against, so its own properties are
// pinned here: grid coverage, same-slice dependencies, byte totals, the
// degenerate one-slice grid, and the contract checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/scheduler.h"
#include "util/check.h"

#include "slice_oracle.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using reference::slice_plan;

struct Fixture {
  cluster::CfsConfig cfg;
  Placement placement;
  rs::Code code;
  cluster::FailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;

  explicit Fixture(int cfg_index, std::uint64_t seed, std::size_t stripes = 10)
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

  [[nodiscard]] RecoveryPlan car_plan(std::uint64_t chunk) const {
    const auto balanced = balance_multi(placement, censuses, 50);
    return build_multi_car_plan(placement, code, balanced.solutions, chunk,
                                scenario.failed_node);
  }
};

// --- lowering properties -------------------------------------------------

TEST(SlicePlanLowering, GridCoversChunkExactly) {
  Fixture f(0, 11);
  const std::uint64_t chunk = 96 * 1024 + 7;  // deliberately odd
  const auto plan = f.car_plan(chunk);
  const auto sliced = slice_plan(plan, 16 * 1024);

  EXPECT_EQ(sliced.num_slices, (chunk + 16 * 1024 - 1) / (16 * 1024));
  EXPECT_EQ(sliced.num_base_steps, plan.steps.size());
  ASSERT_EQ(sliced.steps.size(), plan.steps.size() * sliced.num_slices);
  ASSERT_EQ(sliced.info.size(), sliced.steps.size());

  for (std::size_t base = 0; base < plan.steps.size(); ++base) {
    std::uint64_t covered = 0;
    for (std::size_t s = 0; s < sliced.num_slices; ++s) {
      const std::size_t id = sliced.sliced_id(base, s);
      const auto& info = sliced.info[id];
      EXPECT_EQ(sliced.steps[id].id, id);
      EXPECT_EQ(info.base_step, base);
      EXPECT_EQ(info.slice, s);
      EXPECT_EQ(info.offset, covered);
      covered += info.length;
    }
    EXPECT_EQ(covered, chunk) << "base step " << base;
  }
}

TEST(SlicePlanLowering, DependenciesMapSliceToSameSlice) {
  Fixture f(1, 23);
  const std::uint64_t chunk = 64 * 1024;
  const auto plan = f.car_plan(chunk);
  const auto sliced = slice_plan(plan, 8 * 1024);

  for (std::size_t base = 0; base < plan.steps.size(); ++base) {
    for (std::size_t s = 0; s < sliced.num_slices; ++s) {
      const auto& step = sliced.steps[sliced.sliced_id(base, s)];
      const auto& parent = plan.steps[base];
      ASSERT_EQ(step.deps.size(), parent.deps.size());
      for (std::size_t d = 0; d < parent.deps.size(); ++d) {
        EXPECT_EQ(step.deps[d], sliced.sliced_id(parent.deps[d], s));
      }
    }
  }
}

TEST(SlicePlanLowering, ByteTotalsMatchBasePlanExactly) {
  for (const std::uint64_t slice :
       {std::uint64_t{1024}, std::uint64_t{64 * 1024},
        std::uint64_t{96 * 1024 + 7}, std::uint64_t{1 << 20}}) {
    Fixture f(2, 31);
    const std::uint64_t chunk = 96 * 1024 + 7;
    const auto plan = f.car_plan(chunk);
    const auto sliced = slice_plan(plan, slice);
    EXPECT_EQ(sliced.cross_rack_bytes(), plan.cross_rack_bytes());
    EXPECT_EQ(sliced.intra_rack_bytes(), plan.intra_rack_bytes());
    EXPECT_EQ(sliced.compute_bytes(), plan.compute_bytes());
    EXPECT_EQ(sliced.per_rack_cross_bytes(f.placement.topology()),
              plan.per_rack_cross_bytes(f.placement.topology()));
  }
}

TEST(SlicePlanLowering, DegenerateSliceIsTheIdentity) {
  Fixture f(0, 47);
  const std::uint64_t chunk = 32 * 1024;
  const auto plan = f.car_plan(chunk);
  // slice_size >= chunk_size must reproduce the base plan step for step.
  for (const std::uint64_t slice : {chunk, chunk + 1, 10 * chunk}) {
    const auto sliced = slice_plan(plan, slice);
    EXPECT_EQ(sliced.num_slices, 1u);
    EXPECT_EQ(sliced.slice_size, chunk);
    ASSERT_EQ(sliced.steps.size(), plan.steps.size());
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
      EXPECT_EQ(sliced.steps[i].id, plan.steps[i].id);
      EXPECT_EQ(sliced.steps[i].bytes, plan.steps[i].bytes);
      EXPECT_EQ(sliced.steps[i].deps, plan.steps[i].deps);
    }
  }
}

TEST(SlicePlanLowering, OutputsKeepBaseStepIds) {
  Fixture f(0, 53);
  const auto plan = f.car_plan(64 * 1024);
  const auto sliced = slice_plan(plan, 4 * 1024);
  ASSERT_EQ(sliced.outputs.size(), plan.outputs.size());
  for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
    EXPECT_EQ(sliced.outputs[i].step_id, plan.outputs[i].step_id);
    EXPECT_EQ(sliced.outputs[i].stripe, plan.outputs[i].stripe);
    EXPECT_EQ(sliced.outputs[i].chunk_index, plan.outputs[i].chunk_index);
  }
}

TEST(SlicePlanLowering, EmptyPlanLowersToEmpty) {
  RecoveryPlan plan;
  plan.chunk_size = 0;
  const auto sliced = slice_plan(plan, 1024);
  EXPECT_TRUE(sliced.steps.empty());
  EXPECT_TRUE(sliced.outputs.empty());
}

TEST(SlicePlanLowering, RejectsContractViolations) {
  Fixture f(0, 61);
  auto plan = f.car_plan(16 * 1024);
  EXPECT_THROW((void)slice_plan(plan, 0), util::CheckError);
  plan.steps.front().bytes += 1;
  EXPECT_THROW((void)slice_plan(plan, 4 * 1024), util::CheckError);
}

TEST(SlicePlanLowering, SlicedIdIsSixtyFourBitAndChecksOverflow) {
  // Regression: the id grid used to be computed in the base id's own type,
  // which wraps for million-step plans on narrow size_t — the wrap aliases
  // two different slices onto one id.  The arithmetic is now pinned to
  // uint64_t with a hard overflow check at the boundary.
  constexpr std::uint64_t kSlices = 4096;

  // A million-step plan sliced 4096 ways: ids far beyond 2^32 must come out
  // exact, not truncated.
  const std::uint64_t big_base = 1'000'000;
  EXPECT_EQ(sliced_id(big_base, kSlices, 4095),
            big_base * std::uint64_t{4096} + 4095);

  // Exactly representable boundary: the largest base step whose last slice
  // still fits in uint64_t.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t last_ok = (kMax - 4095) / 4096;
  EXPECT_EQ(sliced_id(last_ok, kSlices, 4095), last_ok * 4096 + 4095);

  // One past it overflows and must throw instead of silently wrapping.
  EXPECT_THROW((void)sliced_id(last_ok + 1, kSlices, 4095), util::CheckError);
  EXPECT_THROW((void)sliced_id(kMax, kSlices, 1), util::CheckError);
}

TEST(SlicePlanLowering, WindowedPlansSliceToo) {
  // schedule_windowed adds lane-gating deps across stripes; the arena must
  // carry them through the same-slice dependency image exactly as the
  // oracle does, without changing what moves where.
  Fixture f(1, 67);
  const auto plan = schedule_windowed(f.car_plan(64 * 1024), 2);
  const auto arena = PlanArena::build(plan, 8 * 1024);
  ASSERT_FALSE(arena.stripe_closed());
  const auto expected = slice_plan(plan, 8 * 1024);
  const auto actual = reference::to_slice_plan(arena);
  ASSERT_EQ(actual.steps.size(), expected.steps.size());
  EXPECT_EQ(actual.info, expected.info);
  for (std::size_t id = 0; id < expected.steps.size(); ++id) {
    reference::expect_step_equal(actual.steps[id], expected.steps[id], id);
  }
  EXPECT_EQ(arena.cross_rack_bytes(), plan.cross_rack_bytes());
  EXPECT_EQ(arena.intra_rack_bytes(), plan.intra_rack_bytes());
  EXPECT_EQ(arena.compute_bytes(), plan.compute_bytes());
  EXPECT_EQ(arena.per_rack_cross_bytes(f.placement.topology()),
            plan.per_rack_cross_bytes(f.placement.topology()));
}

}  // namespace
}  // namespace car::recovery
