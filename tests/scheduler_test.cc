#include "recovery/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "simnet/flowsim.h"

namespace car::recovery {
namespace {

struct Fixture {
  cluster::CfsConfig cfg = cluster::cfs2();
  cluster::Placement placement;
  rs::Code code;
  cluster::FailureScenario scenario;
  RecoveryPlan plan;

  explicit Fixture(std::uint64_t seed, std::size_t stripes = 20)
      : placement(make(cfg, stripes, seed)), code(cfg.k, cfg.m) {
    util::Rng rng(seed + 1);
    scenario = cluster::inject_random_failure(placement, rng);
    const auto censuses = build_multi_censuses(
        placement, make_multi_failure(placement, {scenario.failed_node}));
    const auto balanced = balance_multi(placement, censuses, 50);
    plan = build_multi_car_plan(placement, code, balanced.solutions, 1 << 20,
                                scenario.failed_node);
  }

  static cluster::Placement make(const cluster::CfsConfig& cfg,
                                 std::size_t stripes, std::uint64_t seed) {
    util::Rng rng(seed);
    return cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes,
                                      rng);
  }

  [[nodiscard]] std::size_t stripes_in_plan() const {
    std::set<cluster::StripeId> stripes;
    for (const auto& step : plan.steps) stripes.insert(step.stripe);
    return stripes.size();
  }
};

TEST(Scheduler, RawPlanHasAllStripesInFlight) {
  Fixture f(1);
  EXPECT_EQ(max_inflight_stripes(f.plan), f.stripes_in_plan());
}

class WindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSweep, BoundsInflightStripesWithoutChangingTheWork) {
  const std::size_t window = GetParam();
  Fixture f(2);
  const auto scheduled = schedule_windowed(f.plan, window);

  // Same steps, same traffic — only dependencies differ.
  ASSERT_EQ(scheduled.steps.size(), f.plan.steps.size());
  EXPECT_EQ(scheduled.cross_rack_bytes(), f.plan.cross_rack_bytes());
  EXPECT_EQ(scheduled.intra_rack_bytes(), f.plan.intra_rack_bytes());
  EXPECT_EQ(scheduled.outputs.size(), f.plan.outputs.size());

  EXPECT_EQ(max_inflight_stripes(scheduled),
            std::min(window, f.stripes_in_plan()));

  // The scheduled plan still simulates to completion (no cycles).
  const simnet::NetConfig net;
  const auto result =
      simnet::simulate_plan(f.placement.topology(), scheduled, net);
  EXPECT_GT(result.makespan_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 100u));

TEST(Scheduler, SerialWindowIsSlowerButStillCorrect) {
  Fixture f(3);
  const simnet::NetConfig net;
  const auto parallel =
      simnet::simulate_plan(f.placement.topology(), f.plan, net);
  const auto serial = simnet::simulate_plan(
      f.placement.topology(), schedule_windowed(f.plan, 1), net);
  EXPECT_GT(serial.makespan_s, parallel.makespan_s);
}

TEST(Scheduler, MakespanIsMonotoneInWindowUpToFairnessNoise) {
  // Widening the window adds parallelism, so makespan should not grow —
  // except for small inversions caused by max-min fair sharing not being a
  // makespan-optimal schedule; allow 2% slack.
  Fixture f(4, 16);
  const simnet::NetConfig net;
  double previous = std::numeric_limits<double>::infinity();
  for (std::size_t window : {1u, 2u, 4u, 16u}) {
    const auto result = simnet::simulate_plan(
        f.placement.topology(), schedule_windowed(f.plan, window), net);
    EXPECT_LE(result.makespan_s, previous * 1.02) << "window " << window;
    previous = result.makespan_s;
  }
}

TEST(Scheduler, WindowLargerThanStripesIsIdentity) {
  Fixture f(5, 6);
  const auto scheduled = schedule_windowed(f.plan, 100);
  for (std::size_t i = 0; i < f.plan.steps.size(); ++i) {
    EXPECT_EQ(scheduled.steps[i].deps, f.plan.steps[i].deps);
  }
}

TEST(Scheduler, ZeroWindowRejected) {
  Fixture f(6, 4);
  EXPECT_THROW(schedule_windowed(f.plan, 0), std::invalid_argument);
}

TEST(Scheduler, EmptyPlanIsHandled) {
  RecoveryPlan plan;
  EXPECT_EQ(max_inflight_stripes(plan), 0u);
  const auto scheduled = schedule_windowed(plan, 3);
  EXPECT_TRUE(scheduled.steps.empty());
}

}  // namespace
}  // namespace car::recovery
