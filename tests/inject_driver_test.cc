// BatchDriver causality: a step may start only once EVERY dependency has
// finished, not merely the dependency whose completion the loop happened
// to process last.  The timeline is rebuilt from the EventLog alone —
// transfer starts from kTransferAttempt, finishes from kTransferComplete,
// compute finishes from kComputeComplete (a compute started at
// finish - bytes / virtual_gf_bps) — and checked against the sliced plan's
// dependency lists over randomized single-failure CAR plans.
#include "inject/driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "inject/runtime.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "util/check.h"
#include "util/rng.h"

#include "slice_oracle.h"

namespace car::inject {
namespace {

TEST(BatchDriverCausality, StepsStartAfterEveryDependencyFinishes) {
  constexpr std::uint64_t kChunk = 8 * 1024;
  const cluster::Topology topology({5, 4, 6, 5, 3});
  const rs::Code code(6, 3);
  emul::EmulConfig config;
  config.node_bps = 100e6;
  config.oversubscription = 5.0;
  config.page_bytes = 4 * 1024;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  std::size_t violations = 0;
  for (const std::uint64_t slice_bytes :
       {std::uint64_t{0}, std::uint64_t{2048}}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      util::Rng rng(seed);
      const auto placement =
          cluster::Placement::random(topology, code.k(), code.m(), 30, rng);
      cluster::NodeId failed = 0;
      do {
        failed = static_cast<cluster::NodeId>(rng.next_below(
            static_cast<std::uint64_t>(topology.num_nodes())));
      } while (placement.chunks_on_node(failed).empty());
      const auto failure = cluster::inject_node_failure(placement, failed);
      const auto censuses = recovery::build_multi_censuses(
          placement,
          recovery::make_multi_failure(placement, {failure.failed_node}));
      const auto balanced =
          recovery::balance_multi(placement, censuses, 50);
      const auto plan = recovery::build_multi_car_plan(
          placement, code, balanced.solutions, kChunk, failed);

      // Metadata-only: the timeline is the subject, not the bytes.
      emul::Cluster cluster(topology, config);
      cluster.erase_node(failed);
      DataPolicy data;
      data.metadata_only = true;
      EventLog log;
      BatchDriver driver(cluster, {}, {}, seed, data, log);
      driver.admit(0, recovery::PlanArena::build(
                          plan, slice_bytes > 0 ? slice_bytes : kChunk));
      while (driver.run_until(std::nullopt).stop != StopReason::kIdle) {
      }

      const auto sliced =
          reference::slice_plan(plan, slice_bytes > 0 ? slice_bytes : kChunk);
      std::vector<double> start(sliced.steps.size(), kNaN);
      std::vector<double> finish(sliced.steps.size(), kNaN);
      for (const Event& event : log.events()) {
        if (event.step < 0) continue;
        const auto id = static_cast<std::size_t>(event.step);
        if (event.kind == EventKind::kTransferAttempt) {
          start[id] = event.t;
        } else if (event.kind == EventKind::kTransferComplete) {
          finish[id] = event.t;
        } else if (event.kind == EventKind::kComputeComplete) {
          finish[id] = event.t;
          start[id] = event.t - static_cast<double>(sliced.steps[id].bytes) /
                                    config.virtual_gf_bps;
        }
      }
      for (const auto& step : sliced.steps) {
        ASSERT_FALSE(std::isnan(start[step.id])) << "seed " << seed;
        for (const std::size_t dep : step.deps) {
          ASSERT_FALSE(std::isnan(finish[dep])) << "seed " << seed;
          // Compute starts are reconstructed by subtraction; allow the
          // rounding of one add/subtract pair.
          if (start[step.id] < finish[dep] - 1e-12) {
            ++violations;
            ADD_FAILURE() << "seed " << seed << ", slice " << slice_bytes
                          << ": step " << step.id << " starts at "
                          << start[step.id] << " before dependency " << dep
                          << " finishes at " << finish[dep];
          }
        }
      }
      if (violations > 10) return;  // enough evidence; keep output short
    }
  }
}

// A long rebuild admits one batch after another for the driver's whole
// lifetime.  Batches are keyed by dense lifetime ids and freed when they
// finish, so the 65 537th admission is as ordinary as the first.
TEST(BatchDriverLifetime, SeventyThousandSequentialBatchesAllComplete) {
  constexpr std::uint64_t kChunk = 64;
  constexpr std::size_t kBatches = 70'000;
  emul::Cluster cluster(cluster::Topology({2, 2}), emul::EmulConfig{});
  cluster.store_chunk(0, 0, 0, rs::Chunk(kChunk, 0x5A));
  recovery::RecoveryPlan plan;
  plan.replacement = 2;
  plan.replacement_rack = 1;
  plan.chunk_size = kChunk;
  recovery::PlanStep transfer;
  transfer.kind = recovery::StepKind::kTransfer;
  transfer.src = 0;
  transfer.dst = 2;
  transfer.payload = recovery::BufferRef::chunk(0, 0);
  transfer.cross_rack = true;
  transfer.bytes = kChunk;
  plan.steps.push_back(transfer);

  EventLog log;
  BatchDriver driver(cluster, {}, {}, 1, {}, log, LogFraming::kClient);
  std::size_t completed = 0;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    driver.admit(batch, recovery::PlanArena::build(plan, kChunk));
    const RunOutcome outcome = driver.run_until(std::nullopt);
    ASSERT_EQ(outcome.stop, StopReason::kBatchDone) << "batch " << batch;
    ASSERT_EQ(outcome.finished, std::vector<std::size_t>{batch});
    ASSERT_EQ(driver.inflight(), 0u) << "batch " << batch;
    ++completed;
  }
  EXPECT_EQ(completed, kBatches);
  EXPECT_EQ(driver.completed_steps(), kBatches);
  EXPECT_EQ(driver.report().cross_rack_bytes, kBatches * kChunk);
  EXPECT_EQ(driver.run_until(std::nullopt).stop, StopReason::kIdle);
  const rs::Chunk* delivered = cluster.find_chunk(2, 0, 0);
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(*delivered, rs::Chunk(kChunk, 0x5A));
}

// RetryPolicy set through the API (RebuildOptions::retry, a runtime's
// policy) passes the spec parser's rules at the driver: a NaN timeout
// would switch timeouts off, a non-positive one expires before its attempt
// starts, and zero attempts leave no first try.
TEST(BatchDriverPolicy, RejectsAnUnusableRetryPolicy) {
  emul::Cluster cluster(cluster::Topology({2, 2}), emul::EmulConfig{});
  EventLog log;
  const auto make = [&](const RetryPolicy& policy) {
    BatchDriver driver(cluster, {}, policy, 1, {}, log);
  };
  for (const double timeout : {std::numeric_limits<double>::quiet_NaN(),
                               -1.0, 0.0}) {
    RetryPolicy policy;
    policy.transfer_timeout_s = timeout;
    EXPECT_THROW(make(policy), util::CheckError) << timeout;
  }
  RetryPolicy no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_THROW(make(no_attempts), util::CheckError);

  RetryPolicy never_times_out;
  never_times_out.transfer_timeout_s = std::numeric_limits<double>::infinity();
  never_times_out.max_attempts = 1;
  EXPECT_NO_THROW(make(never_times_out));
}

// A dropped attempt fails at its timeout, so +inf would queue its retry at
// +inf; a corrupt attempt fails on delivery and runs under any timeout.
TEST(BatchDriverPolicy, RejectsADropFaultUnderAnInfiniteTimeout) {
  emul::Cluster cluster(cluster::Topology({2, 2}), emul::EmulConfig{});
  EventLog log;
  FaultPlan faults;
  faults.transfer_faults.emplace_back();
  faults.transfer_faults.front().kind = TransferFault::Kind::kDrop;
  const auto make = [&](double timeout) {
    RetryPolicy policy;
    policy.transfer_timeout_s = timeout;
    BatchDriver driver(cluster, faults, policy, 1, {}, log);
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make(inf), util::CheckError);
  EXPECT_NO_THROW(make(0.5));
  faults.transfer_faults.front().kind = TransferFault::Kind::kCorrupt;
  EXPECT_NO_THROW(make(inf));
}

}  // namespace
}  // namespace car::inject
