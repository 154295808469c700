// Differential test: the fault-free inject::BatchDriver against the
// reference timing replay (tests/reference_replay.h).
//
// With no faults and a timeout no transfer can reach, the driver's policy
// has nothing to decide: every attempt delivers, so its timeline, compute
// charges, byte totals and per-link state must equal the reference replay
// of the same arena bit for bit.  Covered: the paper configurations,
// chunk-granular and sliced lowerings (including a ragged last slice), and
// windowed schedules with cross-stripe dependencies.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/scheduler.h"
#include "reference_replay.h"

namespace car {
namespace {

constexpr std::uint64_t kOddChunk = 96 * 1024 + 7;  // 16 KiB slices are ragged

emul::EmulConfig config() {
  emul::EmulConfig cfg;
  cfg.node_bps = 200e6;
  cfg.oversubscription = 4.0;
  cfg.page_bytes = 16 * 1024;
  return cfg;
}

class DriverDifferential
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DriverDifferential, FaultFreeDriverMatchesTheReferenceReplay) {
  const auto [cfg_index, seed] = GetParam();
  const auto cfg = cluster::paper_configs()[cfg_index];
  util::Rng rng(seed);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 6, rng);
  const rs::Code code(cfg.k, cfg.m);
  const auto failure = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {failure.failed_node}));
  const auto balanced = recovery::balance_multi(placement, censuses, 50);
  const auto chunk_plan = recovery::build_multi_car_plan(
      placement, code, balanced.solutions, kOddChunk, failure.failed_node);

  for (const std::size_t window : {std::size_t{0}, std::size_t{2}}) {
    const auto plan = window > 0
                          ? recovery::schedule_windowed(chunk_plan, window)
                          : chunk_plan;
    for (const std::uint64_t slice :
         {std::uint64_t{0}, std::uint64_t{16 * 1024},
          std::uint64_t{40 * 1024}}) {
      const std::string what = "config " + std::to_string(cfg_index) +
                               " seed " + std::to_string(seed) + " window " +
                               std::to_string(window) + " slice " +
                               std::to_string(slice);
      emul::Cluster driven(cfg.topology(), config());
      util::Rng data_rng(seed + 1);
      driven.populate(placement, code, kOddChunk, data_rng);
      driven.erase_node(failure.failed_node);
      inject::RetryPolicy patient;
      patient.transfer_timeout_s = 1e9;
      inject::EventLog log;
      inject::BatchDriver driver(driven, {}, patient, seed, {}, log);
      const double t0 = driver.now();
      driver.admit(0, recovery::PlanArena::build(
                          plan, slice > 0 ? slice : kOddChunk));
      while (driver.run_until(std::nullopt).stop !=
             inject::StopReason::kIdle) {
      }

      emul::Cluster replayed(cfg.topology(), config());
      const auto expected = reference::replay(
          replayed, recovery::PlanArena::build(
                        plan, slice > 0 ? slice : kOddChunk));
      const auto& got = driver.report();
      EXPECT_EQ(driver.now() - t0, expected.wall_s) << what;
      EXPECT_EQ(got.compute_s, expected.compute_s) << what;
      EXPECT_EQ(got.replacement_compute_s, expected.replacement_compute_s)
          << what;
      EXPECT_EQ(got.cross_rack_bytes, expected.cross_rack_bytes) << what;
      EXPECT_EQ(got.intra_rack_bytes, expected.intra_rack_bytes) << what;
      EXPECT_EQ(got.per_rack_cross_bytes, expected.per_rack_cross_bytes)
          << what;
      EXPECT_TRUE(reference::link_state(driven) ==
                  reference::link_state(replayed))
          << what;
      EXPECT_EQ(driver.stats().retries, 0u) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigsAndSeeds, DriverDifferential,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range(std::uint64_t{1},
                                        std::uint64_t{31})));

}  // namespace
}  // namespace car
