#include "workload/trace.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"

namespace car::workload {
namespace {

using recovery::Strategy;

TEST(FailureTrace, EventsAreOrderedAndInRange) {
  const auto topo = cluster::cfs2().topology();
  util::Rng rng(1);
  const auto events = generate_failure_trace(topo, {50, 3600.0}, rng);
  ASSERT_EQ(events.size(), 50u);
  double prev = 0.0;
  for (const auto& event : events) {
    EXPECT_GT(event.time_s, prev);
    prev = event.time_s;
    EXPECT_LT(event.node, topo.num_nodes());
  }
}

TEST(FailureTrace, MeanInterarrivalIsRoughlyRespected) {
  const auto topo = cluster::cfs1().topology();
  util::Rng rng(2);
  constexpr double kMean = 100.0;
  const auto events = generate_failure_trace(topo, {2000, kMean}, rng);
  const double observed = events.back().time_s / 2000.0;
  EXPECT_NEAR(observed, kMean, kMean * 0.15);
}

TEST(FailureTrace, IsDeterministicPerSeed) {
  const auto topo = cluster::cfs1().topology();
  util::Rng a(3), b(3);
  const auto ea = generate_failure_trace(topo, {20, 60.0}, a);
  const auto eb = generate_failure_trace(topo, {20, 60.0}, b);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_DOUBLE_EQ(ea[i].time_s, eb[i].time_s);
  }
}

TEST(FailureTrace, Validation) {
  const auto topo = cluster::cfs1().topology();
  util::Rng rng(4);
  EXPECT_THROW(generate_failure_trace(topo, {5, 0.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(generate_failure_trace(topo, {5, -2.0}, rng),
               std::invalid_argument);
}

class TraceReplay : public ::testing::TestWithParam<int> {};

TEST_P(TraceReplay, CarNeverLosesToRrOverAWholeTrace) {
  const auto cfg = cluster::paper_configs()[GetParam()];
  util::Rng rng(10 + GetParam());
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 60, rng);
  const auto events =
      generate_failure_trace(placement.topology(), {12, 3600.0}, rng);

  const simnet::NetConfig net;
  constexpr std::uint64_t kChunk = 4ull << 20;
  util::Rng rng_car = rng.split();
  util::Rng rng_rr = rng.split();
  const auto car = run_failure_trace(placement, events, Strategy::kCar,
                                     kChunk, net, rng_car);
  const auto rr = run_failure_trace(placement, events, Strategy::kRr, kChunk,
                                    net, rng_rr);

  EXPECT_EQ(car.failures_processed, rr.failures_processed);
  EXPECT_EQ(car.chunks_rebuilt, rr.chunks_rebuilt);
  EXPECT_LE(car.cross_rack_bytes, rr.cross_rack_bytes);
  EXPECT_LT(car.total_recovery_s, rr.total_recovery_s);
  EXPECT_GE(car.aggregate_lambda, 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, TraceReplay,
                         ::testing::Values(0, 1, 2));

TEST(TraceReplay, SkipsEventsOnEmptyNodes) {
  // A placement with a single stripe leaves most nodes empty; events on
  // empty nodes must not count as processed failures.
  const auto cfg = cluster::cfs3();
  util::Rng rng(20);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 1, rng);
  std::vector<FailureEvent> events;
  for (cluster::NodeId n = 0; n < placement.topology().num_nodes(); ++n) {
    events.push_back({static_cast<double>(n + 1), n});
  }
  util::Rng replay_rng(21);
  const auto report =
      run_failure_trace(placement, events, Strategy::kCar, 1 << 20,
                        simnet::NetConfig{}, replay_rng);
  EXPECT_EQ(report.failures_processed, cfg.k + cfg.m);
  EXPECT_EQ(report.chunks_rebuilt, cfg.k + cfg.m);
  EXPECT_GT(report.max_recovery_s, 0.0);
  EXPECT_LE(report.max_recovery_s, report.total_recovery_s);
}

TEST(TraceReplay, Validation) {
  const auto cfg = cluster::cfs1();
  util::Rng rng(30);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 5, rng);
  EXPECT_THROW(run_failure_trace(placement, {}, Strategy::kCar, 0,
                                 simnet::NetConfig{}, rng),
               std::invalid_argument);
  // Empty trace is a no-op.
  const auto report = run_failure_trace(placement, {}, Strategy::kCar, 1024,
                                        simnet::NetConfig{}, rng);
  EXPECT_EQ(report.failures_processed, 0u);
  EXPECT_EQ(report.aggregate_lambda, 1.0);
}

}  // namespace
}  // namespace car::workload
