// Rebuild control-plane tests: the exposure census, the prioritized queue,
// the rolling-failure spec grammar, coordinator input validation, and the
// end-to-end canned scenarios — including the priority-inversion
// regression (a second failure that exhausts a queued stripe's tolerance
// must be dispatched before any fresh-degraded work) and shard-count
// invariance of the event log.
#include "rebuild/scenario.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "inject/runtime.h"
#include "inject/scenario.h"
#include "rebuild/coordinator.h"
#include "rebuild/queue.h"
#include "recovery/balancer.h"
#include "recovery/census.h"
#include "recovery/exposure.h"
#include "recovery/plan.h"
#include "rs/code.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace car::rebuild {
namespace {

using inject::EventKind;

recovery::StripeExposure entry(cluster::StripeId stripe,
                               std::size_t tolerance,
                               std::size_t min_racks,
                               std::vector<std::size_t> plan_chunks,
                               std::vector<cluster::NodeId> plan_hosts) {
  recovery::StripeExposure e;
  e.stripe = stripe;
  e.tolerance_left = tolerance;
  e.min_racks = min_racks;
  e.plan_chunks = std::move(plan_chunks);
  e.plan_hosts = std::move(plan_hosts);
  e.exposed_chunks = e.plan_chunks;
  return e;
}

TEST(RebuildQueue, OrdersByTierThenCostThenStripe) {
  RebuildQueue queue;
  queue.reset({
      entry(7, 1, 2, {0}, {3}),       // tier 1
      entry(2, 0, 3, {0, 1}, {3}),    // tier 0, cost 6
      entry(9, 0, 2, {0, 1}, {3}),    // tier 0, cost 4 — first
      entry(4, 1, 1, {0}, {3}),       // tier 1, cheapest of its tier
  });
  ASSERT_EQ(queue.size(), 4u);
  const auto batch = queue.pop_batch(10);
  ASSERT_EQ(batch.size(), 4u);  // same signature, one batch
  EXPECT_EQ(batch[0].stripe, 9u);
  EXPECT_EQ(batch[1].stripe, 2u);
  EXPECT_EQ(batch[2].stripe, 4u);
  EXPECT_EQ(batch[3].stripe, 7u);
  EXPECT_TRUE(queue.empty());
}

TEST(RebuildQueue, BatchesShareOneFailureSignature) {
  RebuildQueue queue;
  queue.reset({
      entry(1, 0, 2, {0}, {3, 8}),
      entry(2, 0, 2, {0}, {3}),
      entry(3, 1, 2, {0}, {3, 8}),
      entry(4, 1, 2, {0}, {3}),
  });
  // Head is stripe 1 (signature {3,8}); only stripe 3 shares it.
  const auto first = queue.pop_batch(10);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].stripe, 1u);
  EXPECT_EQ(first[1].stripe, 3u);
  // The skipped signature kept its priority order.
  const auto second = queue.pop_batch(10);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].stripe, 2u);
  EXPECT_EQ(second[1].stripe, 4u);
  EXPECT_TRUE(queue.empty());
}

TEST(RebuildQueue, PopBatchHonoursMaxStripes) {
  RebuildQueue queue;
  queue.reset({
      entry(1, 0, 2, {0}, {3}),
      entry(2, 0, 2, {0}, {3}),
      entry(3, 0, 2, {0}, {3}),
  });
  EXPECT_EQ(queue.pop_batch(2).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2).size(), 1u);
  EXPECT_TRUE(queue.pop_batch(2).empty());
}

TEST(ExposureCensus, ClassifiesAffectedStripesAgainstFailedSet) {
  const cluster::Topology topology({3, 3, 3});
  util::Rng rng(5);
  const auto placement =
      cluster::Placement::random(topology, 3, 2, 10, rng);
  const cluster::NodeId failed = 4;
  recovery::RecoveredSet recovered;
  const auto census =
      recovery::build_exposure_census(placement, {failed}, failed, recovered);
  EXPECT_EQ(census.size(), placement.chunks_on_node(failed).size());
  for (const auto& e : census) {
    ASSERT_EQ(e.plan_chunks.size(), 1u);
    EXPECT_EQ(placement.node_of(e.stripe, e.plan_chunks[0]), failed);
    EXPECT_EQ(e.exposed_chunks, e.plan_chunks);
    EXPECT_EQ(e.tolerance_left, 1u);  // m=2, one chunk exposed
    EXPECT_EQ(e.plan_hosts, std::vector<cluster::NodeId>{failed});
    EXPECT_GE(e.min_racks, 1u);
  }
}

TEST(ExposureCensus, RecoveredChunkOnReplacementLeavesThePlanSet) {
  const cluster::Topology topology({3, 3, 3});
  util::Rng rng(5);
  const auto placement =
      cluster::Placement::random(topology, 3, 2, 10, rng);
  const cluster::NodeId failed = 4;
  recovery::RecoveredSet recovered;
  for (const auto& ref : placement.chunks_on_node(failed)) {
    recovered.mark(ref.stripe, ref.chunk_index);
  }
  // Every lost chunk re-created on its own (replacement) host: no stripe
  // needs work any more.
  const auto census =
      recovery::build_exposure_census(placement, {failed}, failed, recovered);
  EXPECT_TRUE(census.empty());
}

TEST(ParseScenario, RollingCrashLinesAccumulateInOrder) {
  const auto scenario = inject::parse_scenario(R"(name rolling
racks 2,2,2
k 3
m 2
stripes 6
crash node=1 at=0
crash node=4 at=0.5
batch-stripes 3
concurrency 4
)");
  ASSERT_EQ(scenario.faults.node_crashes.size(), 2u);
  EXPECT_EQ(scenario.faults.node_crashes[0].node, 1u);
  EXPECT_DOUBLE_EQ(*scenario.faults.node_crashes[0].at_time_s, 0.0);
  EXPECT_EQ(scenario.faults.node_crashes[1].node, 4u);
  EXPECT_DOUBLE_EQ(*scenario.faults.node_crashes[1].at_time_s, 0.5);
  EXPECT_EQ(scenario.rebuild_batch_stripes, 3u);
  EXPECT_EQ(scenario.rebuild_concurrency, 4u);
}

TEST(ParseScenario, DuplicateCrashNodeNamesTheOffendingLine) {
  try {
    inject::parse_scenario("crash node=3 at=0\ncrash node=3 at=1\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate crash for node 3"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("crash node=3 at=1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseScenario, OutOfOrderCrashTimesRejected) {
  try {
    inject::parse_scenario("crash node=3 at=1\ncrash node=4 at=0.5\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-decreasing"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("crash node=4 at=0.5"),
              std::string::npos)
        << e.what();
  }
}

// A non-finite failure time used to parse, and the rebuild then spun
// forever in the calendar queue's rewindow loop at t = inf.
TEST(ParseScenario, NonFiniteCrashTimeNamesTheOffendingLine) {
  for (const std::string at : {"inf", "-inf", "nan", "infinity"}) {
    const std::string line = "crash node=4 at=" + at;
    try {
      inject::parse_scenario("crash node=3 at=0\n" + line + "\n");
      FAIL() << "expected invalid_argument for at=" << at;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("must be finite"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseScenario, FailNodeConflictingWithCrashRejected) {
  EXPECT_THROW(
      inject::parse_scenario("crash node=3 at=1\nfail-node 3\n"),
      std::invalid_argument);
  EXPECT_THROW(
      inject::parse_scenario("fail-node 3\ncrash node=3 at=1\n"),
      std::invalid_argument);
}

TEST(Coordinator, RejectsMalformedFailureSchedules) {
  const cluster::Topology topology({3, 3, 3});
  const rs::Code code(3, 2);
  util::Rng rng(1);
  const auto placement = cluster::Placement::random(topology, 3, 2, 4, rng);
  emul::EmulConfig config;

  const auto run_events = [&](std::vector<FailureEvent> events,
                              RebuildOptions options = {}) {
    emul::Cluster cluster(topology, config);
    options.data.metadata_only = true;  // no payload needed to hit the checks
    RebuildCoordinator coordinator(cluster, placement, code, options);
    coordinator.run(events);
  };

  EXPECT_THROW(run_events({}), util::CheckError);
  EXPECT_THROW(run_events({{99, 0.0}}), util::CheckError);
  EXPECT_THROW(run_events({{1, 1.0}, {4, 0.5}}), util::CheckError);
  // A node cannot fail twice — which also covers a later failure aimed at
  // the guarded replacement.
  EXPECT_THROW(run_events({{1, 0.0}, {1, 0.5}}), util::CheckError);
  RebuildOptions with_crash;
  with_crash.faults.node_crashes.push_back({2, std::nullopt, 0.1});
  EXPECT_THROW(run_events({{1, 0.0}}, with_crash), util::CheckError);
}

TEST(Coordinator, NonFiniteFailureTimeNamesTheEvent) {
  const cluster::Topology topology({3, 3, 3});
  const rs::Code code(3, 2);
  util::Rng rng(1);
  const auto placement = cluster::Placement::random(topology, 3, 2, 4, rng);
  emul::EmulConfig config;
  for (const double at : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    emul::Cluster cluster(topology, config);
    RebuildOptions options;
    options.data.metadata_only = true;
    RebuildCoordinator coordinator(cluster, placement, code, options);
    const std::vector<FailureEvent> events = {{1, 0.0}, {4, at}};
    try {
      coordinator.run(events);
      FAIL() << "expected CheckError for at_s = " << at;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("failure event 1 has a "
                                           "non-finite time"),
                std::string::npos)
          << e.what();
    }
  }
}

// Regression for the calendar-queue rewindow gap, at the control-plane
// level: batch 0's dense work drains, a dropped transfer leaves one lone
// retry far in the future, run_until's deadline check peeks the queue
// (rewindowing the rung onto the retry), and the coordinator-style admit()
// then seeds batch 1 at the paused `now` — BELOW the rewindowed rung
// start.  Those seeds must execute at ~now, not after the retry; before
// the bucket_index fix they were misrouted to the overflow rung and the
// driver's monotone clamp silently stamped batch 1's whole timeline at the
// retry's far-future time.
TEST(BatchDriver, AdmitAfterDeadlinePauseExecutesBeforeFarFutureRetry) {
  constexpr std::uint64_t kChunk = 8 * 1024;
  const cluster::Topology topology({4, 3, 3});
  const rs::Code code(4, 2);
  emul::EmulConfig config;
  config.node_bps = 100e6;
  config.oversubscription = 5.0;
  config.page_bytes = 4 * 1024;
  emul::Cluster cluster(topology, config);
  util::Rng rng(7);
  const auto placement =
      cluster::Placement::random(topology, code.k(), code.m(), 8, rng);
  const auto originals = cluster.populate(placement, code, kChunk, rng);
  const cluster::NodeId failed = 2;
  const auto failure = cluster::inject_node_failure(placement, failed);
  cluster.erase_node(failed);
  const auto censuses = recovery::build_censuses(placement, failure);
  const auto balanced = recovery::balance_greedy(placement, censuses, {50});
  ASSERT_GE(balanced.solutions.size(), 2u);
  // Two batches over disjoint stripe subsets of the same failure: all but
  // one stripe in batch 0, the last stripe in batch 1.
  const std::span<const recovery::PerStripeSolution> all(balanced.solutions);
  const auto plan_a = recovery::build_car_plan(
      placement, code, all.subspan(0, all.size() - 1), kChunk, failed);
  const auto plan_b = recovery::build_car_plan(
      placement, code, all.subspan(all.size() - 1), kChunk, failed);

  // Drop the first attempt of one real transfer of batch 0, with a huge
  // deterministic backoff: the retry is the lone far-future event.  The
  // fault matches by plan-step id and both plans use dense ids from 0, so
  // pick an id batch 1's (smaller) plan does not have — the fault must not
  // also fire inside batch 1.
  ASSERT_GT(plan_a.steps.size(), plan_b.steps.size());
  inject::FaultPlan faults;
  inject::TransferFault drop;
  drop.kind = inject::TransferFault::Kind::kDrop;
  drop.attempts = {1};
  for (const auto& step : plan_a.steps) {
    if (step.id >= plan_b.steps.size() &&
        step.kind == recovery::StepKind::kTransfer && step.src != step.dst) {
      drop.step = step.id;
      break;
    }
  }
  ASSERT_TRUE(drop.step.has_value());
  faults.transfer_faults.push_back(drop);
  inject::RetryPolicy policy;
  constexpr double kRetryDelay = 5e5;
  policy.backoff = util::BackoffSchedule(kRetryDelay, 1.0, kRetryDelay, 0.0);

  inject::EventLog log;
  inject::BatchDriver driver(cluster, faults, policy, 7, 0, {}, log);
  driver.admit(0, plan_a);
  const auto paused = driver.run_until(100.0);
  ASSERT_EQ(paused.stop, inject::StopReason::kDeadline);
  ASSERT_LT(driver.now(), 100.0);
  driver.admit(1, plan_b);
  std::vector<std::size_t> finished;
  for (;;) {
    const auto outcome = driver.run_until(std::nullopt);
    if (outcome.stop == inject::StopReason::kIdle) break;
    ASSERT_EQ(outcome.stop, inject::StopReason::kBatchDone);
    finished.insert(finished.end(), outcome.finished.begin(),
                    outcome.finished.end());
  }
  EXPECT_EQ(finished, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(log.count(EventKind::kRetryScheduled), 1u);

  // Batch 1 was admitted at the pause (~1s): every one of its events must
  // land well before the retry fires at ~kRetryDelay.
  for (const auto& event : log.events()) {
    if (event.detail.find(", batch 1") == std::string::npos) continue;
    EXPECT_LT(event.t, 1000.0) << inject::to_string(event.kind) << " "
                               << event.detail;
  }
  // And both halves recover bit-exact despite the interleaving.
  for (const auto* plan : {&plan_a, &plan_b}) {
    for (const auto& out : plan->outputs) {
      const rs::Chunk* rec =
          cluster.find_chunk(failed, out.stripe, out.chunk_index);
      ASSERT_NE(rec, nullptr) << "stripe " << out.stripe;
      EXPECT_EQ(*rec, originals[out.stripe][out.chunk_index])
          << "stripe " << out.stripe << " chunk " << out.chunk_index;
    }
  }
}

TEST(RebuildScenario, RollingTwoRackRecoversBitExact) {
  const auto outcome =
      run_rebuild_scenario(canned_rebuild_scenario("rolling-two-rack"));
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_GT(outcome.chunks_expected, 0u);
  EXPECT_EQ(outcome.chunks_verified, outcome.chunks_expected);
  EXPECT_EQ(outcome.result.failed_nodes,
            (std::vector<cluster::NodeId>{1, 5}));
  EXPECT_EQ(outcome.result.replacement, 1u);
  EXPECT_EQ(outcome.result.metrics.scans, 2u);
  EXPECT_GT(outcome.result.metrics.batches_dispatched, 0u);
  EXPECT_GT(outcome.result.metrics.makespan_s, 0.0);
  EXPECT_GT(outcome.result.metrics.total_exposure_s, 0.0);
  EXPECT_EQ(outcome.result.log.count(EventKind::kMembershipChange), 2u);
  EXPECT_EQ(outcome.result.log.count(EventKind::kScanComplete), 2u);
}

// The priority-inversion regression: the second failure lands mid-rebuild,
// some stripes lose a second chunk (tolerance exhausted — tier 0), and the
// re-scan must dispatch every tier-0 batch before any fresh-degraded
// (tier 1) batch.
TEST(RebuildScenario, SecondFailurePreemptsFreshDegradedWork) {
  const auto outcome =
      run_rebuild_scenario(canned_rebuild_scenario("rolling-two-rack"));
  // The mid-rebuild failure must actually cancel in-flight work.
  EXPECT_GT(outcome.result.metrics.batches_cancelled, 0u);
  EXPECT_GT(outcome.result.metrics.stripes_requeued, 0u);
  EXPECT_GT(outcome.result.metrics.total_at_risk_s, 0.0);

  // Walk the log: after the second membership change, batch tiers must be
  // non-decreasing and must start at tier 0.
  std::size_t membership_seen = 0;
  std::vector<std::size_t> epoch2_tiers;
  for (const auto& event : outcome.result.log.events()) {
    if (event.kind == EventKind::kMembershipChange) ++membership_seen;
    if (membership_seen < 2 ||
        event.kind != EventKind::kBatchDispatched) {
      continue;
    }
    const auto pos = event.detail.find("tier ");
    ASSERT_NE(pos, std::string::npos) << event.detail;
    epoch2_tiers.push_back(
        static_cast<std::size_t>(event.detail[pos + 5] - '0'));
  }
  ASSERT_GE(epoch2_tiers.size(), 2u);
  EXPECT_EQ(epoch2_tiers.front(), 0u);
  EXPECT_TRUE(std::is_sorted(epoch2_tiers.begin(), epoch2_tiers.end()));
  // Both tiers must be present: most-exposed work preempted queued
  // fresh-degraded work, it did not replace it.
  EXPECT_EQ(epoch2_tiers.back(), 1u);
}

TEST(RebuildScenario, RollingTripleConsumesFullToleranceBitExact) {
  const auto outcome =
      run_rebuild_scenario(canned_rebuild_scenario("rolling-triple"));
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_GT(outcome.chunks_expected, 0u);
  EXPECT_EQ(outcome.result.failed_nodes,
            (std::vector<cluster::NodeId>{2, 6, 10}));
  EXPECT_EQ(outcome.result.metrics.scans, 3u);
  EXPECT_EQ(outcome.result.log.count(EventKind::kMembershipChange), 3u);
}

TEST(RebuildScenario, EventLogIsInvariantUnderPopulateShardCount) {
  const auto scenario = canned_rebuild_scenario("rolling-two-rack");
  const auto one = run_rebuild_scenario(scenario, 1);
  const auto four = run_rebuild_scenario(scenario, 4);
  EXPECT_TRUE(one.bit_exact);
  EXPECT_TRUE(four.bit_exact);
  EXPECT_EQ(one.result.log.to_json(), four.result.log.to_json());
}

TEST(RebuildScenario, MetadataModeSamplesAndVerifiesAffectedStripes) {
  auto scenario = canned_rebuild_scenario("rolling-two-rack");
  scenario.data_mode = "metadata";
  scenario.sample_stripes = 4;
  const auto outcome = run_rebuild_scenario(scenario);
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_EQ(outcome.stripes_materialised, 4u);
  EXPECT_GT(outcome.chunks_expected, 0u);
  // Full-byte and metadata runs recover the same chunk set.
  const auto full =
      run_rebuild_scenario(canned_rebuild_scenario("rolling-two-rack"));
  ASSERT_EQ(outcome.result.recovered.size(), full.result.recovered.size());
  for (std::size_t i = 0; i < full.result.recovered.size(); ++i) {
    EXPECT_EQ(outcome.result.recovered[i].stripe,
              full.result.recovered[i].stripe);
    EXPECT_EQ(outcome.result.recovered[i].chunk_index,
              full.result.recovered[i].chunk_index);
  }
}

TEST(RebuildScenario, SameSeedRunsProduceByteIdenticalLogs) {
  for (const auto& name : canned_rebuild_scenario_names()) {
    const auto scenario = canned_rebuild_scenario(name);
    const auto a = run_rebuild_scenario(scenario);
    const auto b = run_rebuild_scenario(scenario);
    EXPECT_EQ(a.result.log.to_json(), b.result.log.to_json()) << name;
  }
}

}  // namespace
}  // namespace car::rebuild
