// ResilientRuntime tests: fault-free execution, timeout/retry/backoff,
// at-most-once transfer accounting under retries, crash escalation through
// the recovery/multi re-plan, and byte-identical event logs across runs.
#include "inject/runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "recovery/census.h"
#include "recovery/plan.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::inject {
namespace {

constexpr std::uint64_t kChunk = 8 * 1024;
constexpr cluster::NodeId kFailed = 2;

/// A populated virtual-clock cluster with node 2 failed and a CAR plan to
/// recover it — the shared stage for every runtime test.
struct Env {
  cluster::Topology topology{std::vector<std::size_t>{4, 3, 3}};
  rs::Code code{4, 2};
  std::unique_ptr<emul::Cluster> cluster;
  std::optional<cluster::Placement> placement;
  std::vector<std::vector<rs::Chunk>> originals;
  cluster::FailureScenario failure;
  recovery::RecoveryPlan plan;

  explicit Env(std::uint64_t seed = 7) {
    emul::EmulConfig config;
    config.node_bps = 100e6;
    config.oversubscription = 5.0;
    config.page_bytes = 4 * 1024;
    cluster = std::make_unique<emul::Cluster>(topology, config);
    util::Rng rng(seed);
    placement =
        cluster::Placement::random(topology, code.k(), code.m(), 8, rng);
    originals = cluster->populate(*placement, code, kChunk, rng);
    failure = cluster::inject_node_failure(*placement, kFailed);
    cluster->erase_node(kFailed);
    const auto censuses = recovery::build_censuses(*placement, failure);
    const auto balanced = recovery::balance_greedy(*placement, censuses, {50});
    plan = recovery::build_car_plan(*placement, code, balanced.solutions,
                                    kChunk, kFailed);
  }

  [[nodiscard]] ReplanContext context() const {
    ReplanContext ctx;
    ctx.placement = &*placement;
    ctx.code = &code;
    ctx.failed_nodes = {kFailed};
    return ctx;
  }

  /// Chunks recovered onto the replacement, verified byte-for-byte.
  [[nodiscard]] std::size_t verified(const recovery::RecoveryPlan& done) const {
    std::size_t ok = 0;
    for (const auto& out : done.outputs) {
      const rs::Chunk* rec =
          cluster->find_chunk(done.replacement, out.stripe, out.chunk_index);
      ok += rec != nullptr && *rec == originals[out.stripe][out.chunk_index];
    }
    return ok;
  }
};

TEST(ResilientRuntime, FaultFreeRunRecoversBitExactly) {
  Env env;
  ResilientRuntime runtime(*env.cluster, {}, {}, 7);
  const auto result = runtime.execute(env.plan, env.context());

  EXPECT_FALSE(result.replanned);
  EXPECT_EQ(env.verified(result.final_plan), env.plan.outputs.size());
  EXPECT_EQ(result.stats.retries, 0u);
  EXPECT_EQ(result.stats.timeouts, 0u);
  EXPECT_EQ(result.stats.wasted_wire_bytes, 0u);
  EXPECT_EQ(result.stats.attempts, env.plan.num_transfers());
  EXPECT_EQ(result.report.cross_rack_bytes, env.plan.cross_rack_bytes());
  EXPECT_GT(result.report.wall_s, 0.0);
  EXPECT_EQ(result.log.count(EventKind::kRunStart), 1u);
  EXPECT_EQ(result.log.count(EventKind::kRunComplete), 1u);
  EXPECT_EQ(result.log.count(EventKind::kComputeComplete),
            env.plan.num_computes());
}

TEST(ResilientRuntime, DroppedFirstAttemptsAreRetriedAndCountedOnce) {
  Env env;
  FaultPlan faults;
  TransferFault drop;
  drop.kind = TransferFault::Kind::kDrop;
  drop.attempts = {1};  // every transfer's first try is lost
  faults.transfer_faults.push_back(drop);

  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  const auto result = runtime.execute(env.plan, env.context());

  EXPECT_EQ(env.verified(result.final_plan), env.plan.outputs.size());
  EXPECT_GT(result.stats.drops, 0u);
  EXPECT_EQ(result.stats.retries, result.stats.drops);
  EXPECT_GT(result.stats.wasted_wire_bytes, 0u);
  // The acceptance invariant: retried transfers are reported exactly once —
  // the payload totals match the plan, not the wire traffic.
  EXPECT_EQ(result.report.cross_rack_bytes, env.plan.cross_rack_bytes());
  EXPECT_EQ(result.log.count(EventKind::kRetryScheduled),
            result.stats.retries);
}

TEST(ResilientRuntime, CorruptedPayloadsAreDetectedAndRetried) {
  Env env;
  FaultPlan faults;
  TransferFault corrupt;
  corrupt.kind = TransferFault::Kind::kCorrupt;
  corrupt.attempts = {1};
  faults.transfer_faults.push_back(corrupt);

  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  const auto result = runtime.execute(env.plan, env.context());

  EXPECT_EQ(env.verified(result.final_plan), env.plan.outputs.size());
  EXPECT_GT(result.stats.corruptions, 0u);
  EXPECT_EQ(result.report.cross_rack_bytes, env.plan.cross_rack_bytes());
  // Corrupt deliveries never land in the destination's buffers: recovery
  // still decodes from clean retransmissions only.
  EXPECT_EQ(result.log.count(EventKind::kTransferCorrupt),
            result.stats.corruptions);
}

TEST(ResilientRuntime, BlackoutCausesTimeoutsThenRecovery) {
  Env env;
  FaultPlan faults;
  // Black out every rack uplink for 0.15 s; cross-rack transfers projected
  // past the 0.05 s deadline time out and retry after the window.
  for (std::size_t rack = 0; rack < 3; ++rack) {
    faults.link_faults.push_back({LinkSide::kRackUp, rack, 0.0, 0.15, 0.0});
  }
  RetryPolicy policy;
  policy.transfer_timeout_s = 0.05;
  policy.max_attempts = 10;

  ResilientRuntime runtime(*env.cluster, faults, policy, 7);
  const auto result = runtime.execute(env.plan, env.context());

  EXPECT_EQ(env.verified(result.final_plan), env.plan.outputs.size());
  EXPECT_GT(result.stats.timeouts, 0u);
  // Timed-out attempts never touched the wire.
  EXPECT_EQ(result.stats.wasted_wire_bytes, 0u);
  EXPECT_EQ(result.report.cross_rack_bytes, env.plan.cross_rack_bytes());
  EXPECT_GT(result.report.wall_s, 0.15);
}

TEST(ResilientRuntime, ExhaustedRetriesFailLoudly) {
  Env env;
  FaultPlan faults;
  TransferFault drop;  // every attempt of every transfer drops
  drop.kind = TransferFault::Kind::kDrop;
  faults.transfer_faults.push_back(drop);
  RetryPolicy policy;
  policy.max_attempts = 2;

  ResilientRuntime runtime(*env.cluster, faults, policy, 7);
  EXPECT_THROW(runtime.execute(env.plan, env.context()), util::StateError);
}

TEST(ResilientRuntime, MidRecoveryCrashReplansAndFinishes) {
  Env env;
  FaultPlan faults;
  NodeCrash crash;
  crash.node = 5;
  crash.at_fraction = 0.4;
  faults.node_crashes.push_back(crash);

  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  const auto result = runtime.execute(env.plan, env.context());

  ASSERT_TRUE(result.replanned);
  EXPECT_TRUE(result.replan_validation.ok());
  EXPECT_EQ(result.stats.replans, 1u);
  EXPECT_TRUE(env.cluster->is_dropped(5));

  // The re-plan rebuilds every chunk of BOTH failed nodes, bit-exactly.
  const auto crashed_loss =
      cluster::inject_node_failure(*env.placement, 5);
  EXPECT_EQ(result.final_plan.outputs.size(),
            env.failure.lost.size() + crashed_loss.lost.size());
  EXPECT_EQ(env.verified(result.final_plan),
            result.final_plan.outputs.size());

  // Escalation event order: crash -> cancel -> replan -> validate -> resume.
  std::vector<EventKind> order;
  for (const auto& event : result.log.events()) {
    switch (event.kind) {
      case EventKind::kNodeCrash:
      case EventKind::kStepsCancelled:
      case EventKind::kReplanStart:
      case EventKind::kReplanValidated:
      case EventKind::kResume:
        order.push_back(event.kind);
        break;
      default:
        break;
    }
  }
  const std::vector<EventKind> expected{
      EventKind::kNodeCrash, EventKind::kStepsCancelled,
      EventKind::kReplanStart, EventKind::kReplanValidated,
      EventKind::kResume};
  EXPECT_EQ(order, expected);
}

TEST(ResilientRuntime, TimeTriggeredCrashAlsoEscalates) {
  Env env;
  FaultPlan faults;
  NodeCrash crash;
  crash.node = 8;
  // Early in the run: the 8 KiB-chunk plan finishes in a few hundred
  // microseconds of virtual time, so trigger within the first transfers.
  crash.at_time_s = 0.0001;
  faults.node_crashes.push_back(crash);

  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  const auto result = runtime.execute(env.plan, env.context());
  ASSERT_TRUE(result.replanned);
  EXPECT_EQ(env.verified(result.final_plan),
            result.final_plan.outputs.size());
  EXPECT_GT(result.final_plan.outputs.size(), 0u);
}

TEST(ResilientRuntime, CrashTargetingReplacementIsRejected) {
  Env env;
  FaultPlan faults;
  NodeCrash crash;
  crash.node = kFailed;  // the replacement itself
  crash.at_fraction = 0.5;
  faults.node_crashes.push_back(crash);
  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  EXPECT_THROW(runtime.execute(env.plan, env.context()), util::CheckError);
}

TEST(ResilientRuntime, CrashWithoutReplanContextIsRejected) {
  Env env;
  FaultPlan faults;
  NodeCrash crash;
  crash.node = 5;
  crash.at_fraction = 0.5;
  faults.node_crashes.push_back(crash);
  ResilientRuntime runtime(*env.cluster, faults, {}, 7);
  ReplanContext empty;
  EXPECT_THROW(runtime.execute(env.plan, empty), util::CheckError);
}

TEST(ResilientRuntime, SameSeedRunsProduceByteIdenticalLogs) {
  FaultPlan faults;
  TransferFault drop;
  drop.kind = TransferFault::Kind::kDrop;
  drop.probability = 0.4;
  faults.transfer_faults.push_back(drop);
  faults.link_faults.push_back({LinkSide::kRackUp, 0, 0.0, 0.01, 0.0});
  NodeCrash crash;
  crash.node = 5;
  crash.at_fraction = 0.5;
  faults.node_crashes.push_back(crash);

  auto run_once = [&] {
    Env env(21);
    ResilientRuntime runtime(*env.cluster, faults, {}, 21);
    return runtime.execute(env.plan, env.context());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.log.to_json(), b.log.to_json());
  EXPECT_EQ(a.report.wall_s, b.report.wall_s);  // bit-equal, not just close
  EXPECT_EQ(a.stats.attempts, b.stats.attempts);
}

}  // namespace
}  // namespace car::inject
