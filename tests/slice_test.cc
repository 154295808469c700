#include "recovery/slice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "recovery/scheduler.h"
#include "recovery/validate.h"
#include "util/check.h"

namespace car::recovery {
namespace {

using cluster::Placement;

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
  SlicePlan sliced;
  sliced.num_slices = 4096;

  // A million-step plan sliced 4096 ways: ids far beyond 2^32 must come out
  // exact, not truncated.
  const std::uint64_t big_base = 1'000'000;
  EXPECT_EQ(sliced.sliced_id(big_base, 4095),
            big_base * std::uint64_t{4096} + 4095);

  // Exactly representable boundary: the largest base step whose last slice
  // still fits in uint64_t.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t last_ok = (kMax - 4095) / 4096;
  EXPECT_EQ(sliced.sliced_id(last_ok, 4095), last_ok * 4096 + 4095);

  // One past it overflows and must throw instead of silently wrapping.
  EXPECT_THROW((void)sliced.sliced_id(last_ok + 1, 4095), util::CheckError);
  EXPECT_THROW((void)sliced.sliced_id(kMax, 1), util::CheckError);
}

TEST(SlicePlanLowering, WindowedPlansSliceToo) {
  // schedule_windowed adds lane-gating deps; the lowering must carry them
  // through the same-slice dependency image without breaking coverage.
  Fixture f(1, 67);
  const auto plan = schedule_windowed(f.car_plan(64 * 1024), 2);
  const auto sliced = slice_plan(plan, 8 * 1024);
  const auto report =
      validate_sliced_plan(sliced, plan, f.placement.topology());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- validate_sliced_plan ------------------------------------------------

TEST(ValidateSlicedPlan, AcceptsFaithfulLowerings) {
  for (const std::uint64_t slice :
       {std::uint64_t{1024}, std::uint64_t{8 * 1024},
        std::uint64_t{96 * 1024 + 7}}) {
    Fixture f(0, 71);
    const auto plan = f.car_plan(96 * 1024 + 7);
    const auto sliced = slice_plan(plan, slice);
    const auto report =
        validate_sliced_plan(sliced, plan, f.placement.topology());
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

struct Tampered : public ::testing::Test {
  Fixture f{0, 83};
  RecoveryPlan plan = f.car_plan(64 * 1024);
  SlicePlan sliced = slice_plan(plan, 8 * 1024);

  [[nodiscard]] ValidationReport validate() const {
    return validate_sliced_plan(sliced, plan, f.placement.topology());
  }
};

TEST_F(Tampered, DetectsMetadataDrift) {
  sliced.chunk_size += 1;
  EXPECT_FALSE(validate().ok());
}

TEST_F(Tampered, DetectsBrokenCoverage) {
  // Shift one slice's byte range: the chunk is no longer partitioned.
  sliced.info[1].offset += 1;
  EXPECT_FALSE(validate().ok());
}

TEST_F(Tampered, DetectsWrongSliceBytes) {
  sliced.steps[1].bytes += 1;
  const auto report = validate();
  EXPECT_FALSE(report.ok());
}

TEST_F(Tampered, DetectsCrossRackByteDrift) {
  // Flip an intra-rack slice transfer to claim cross-rack (or vice versa):
  // slicing must never change what crosses the core.
  for (auto& step : sliced.steps) {
    if (step.kind == StepKind::kTransfer) {
      step.cross_rack = !step.cross_rack;
      break;
    }
  }
  const auto report = validate();
  EXPECT_FALSE(report.ok());
  const bool mentions_traffic = std::any_of(
      report.errors.begin(), report.errors.end(), [](const std::string& e) {
        return e.find("cross-rack") != std::string::npos;
      });
  EXPECT_TRUE(mentions_traffic) << report.to_string();
}

TEST_F(Tampered, DetectsDependencyImageViolation) {
  // Point a slice at a *different* slice of its parent — breaks the
  // same-slice pipeline contract even though the DAG stays acyclic.
  for (std::size_t id = 0; id < sliced.steps.size(); ++id) {
    if (!sliced.steps[id].deps.empty() &&
        sliced.info[id].slice + 1 < sliced.num_slices) {
      sliced.steps[id].deps[0] += 1;
      break;
    }
  }
  EXPECT_FALSE(validate().ok());
}

TEST_F(Tampered, DetectsEndpointDrift) {
  for (auto& step : sliced.steps) {
    if (step.kind == StepKind::kTransfer) {
      step.dst = (step.dst + 1) % f.placement.topology().num_nodes();
      break;
    }
  }
  EXPECT_FALSE(validate().ok());
}

TEST_F(Tampered, DetectsOutputDrift) {
  ASSERT_FALSE(sliced.outputs.empty());
  sliced.outputs.front().stripe += 1;
  EXPECT_FALSE(validate().ok());
}

TEST_F(Tampered, DetectsMissingSliceSteps) {
  sliced.steps.pop_back();
  sliced.info.pop_back();
  EXPECT_FALSE(validate().ok());
}

}  // namespace
}  // namespace car::recovery
