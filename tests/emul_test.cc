#include "emul/cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "cluster/configs.h"
#include "emul/link.h"
#include "recovery/balancer.h"
#include "recovery/scheduler.h"
#include "util/check.h"

namespace car::emul {
namespace {

using cluster::Topology;

EmulConfig fast_config() {
  EmulConfig cfg;
  cfg.node_bps = 200e6;  // keep tests quick
  cfg.oversubscription = 4.0;
  cfg.page_bytes = 16 * 1024;
  return cfg;
}

EmulConfig virtual_config() {
  EmulConfig cfg = fast_config();
  return cfg;
}

/// Hand-built single-transfer plan (src -> dst) for one stored chunk.
recovery::RecoveryPlan one_transfer_plan(cluster::NodeId src,
                                         cluster::NodeId dst,
                                         std::uint64_t bytes) {
  recovery::RecoveryPlan plan;
  plan.chunk_size = bytes;
  recovery::PlanStep step;
  step.id = 0;
  step.kind = recovery::StepKind::kTransfer;
  step.src = src;
  step.dst = dst;
  step.payload = recovery::BufferRef::chunk(0, 0);
  step.bytes = bytes;
  plan.steps.push_back(std::move(step));
  return plan;
}

TEST(SerialLink, RejectsNonPositiveRate) {
  EXPECT_THROW(SerialLink(0.0), std::invalid_argument);
  EXPECT_THROW(SerialLink(-5.0), std::invalid_argument);
}

TEST(SerialLink, ReserveAccumulatesOnTimeline) {
  SerialLink link(1e6);  // 1 MB/s
  EXPECT_DOUBLE_EQ(link.reserve(0.0, 500'000), 0.5);
  EXPECT_DOUBLE_EQ(link.reserve(0.0, 500'000), 1.0);  // queued behind first
  EXPECT_DOUBLE_EQ(link.reserve(2.0, 1'000'000), 3.0);  // idle gap skipped
  EXPECT_EQ(link.bytes_transmitted(), 2'000'000u);
}

TEST(Cluster, StoreFindEraseChunks) {
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(1, 7, 3, rs::Chunk{1, 2, 3});
  const auto* chunk = cluster.find_chunk(1, 7, 3);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(*chunk, (rs::Chunk{1, 2, 3}));
  EXPECT_EQ(cluster.find_chunk(0, 7, 3), nullptr);
  cluster.erase_node(1);
  EXPECT_EQ(cluster.find_chunk(1, 7, 3), nullptr);
  EXPECT_THROW(cluster.store_chunk(9, 0, 0, {}), std::out_of_range);
  EXPECT_THROW(cluster.erase_node(9), std::out_of_range);
}

TEST(Cluster, PopulateStoresEveryChunkOnItsHost) {
  util::Rng rng(41);
  const auto cfg = cluster::cfs1();
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 5, rng);
  const rs::Code code(cfg.k, cfg.m);
  Cluster cluster(cfg.topology(), fast_config());
  const auto originals = cluster.populate(placement, code, 2048, rng);
  ASSERT_EQ(originals.size(), 5u);
  for (cluster::StripeId s = 0; s < 5; ++s) {
    ASSERT_EQ(originals[s].size(), cfg.k + cfg.m);
    for (std::size_t c = 0; c < cfg.k + cfg.m; ++c) {
      const auto* stored = cluster.find_chunk(placement.node_of(s, c), s, c);
      ASSERT_NE(stored, nullptr);
      EXPECT_EQ(*stored, originals[s][c]);
    }
  }
}

struct RecoveryFixture {
  cluster::CfsConfig cfg;
  cluster::Placement placement;
  rs::Code code;
  Cluster cluster;
  std::vector<std::vector<rs::Chunk>> originals;
  cluster::FailureScenario scenario;
  std::vector<recovery::StripeCensus> censuses;

  RecoveryFixture(int cfg_index, std::uint64_t seed, std::size_t stripes,
                  std::uint64_t chunk_size, EmulConfig emul = fast_config())
      : cfg(cluster::paper_configs()[cfg_index]),
        placement(make_placement(cfg, stripes, seed)),
        code(cfg.k, cfg.m),
        cluster(cfg.topology(), emul) {
    util::Rng rng(seed + 1);
    originals = cluster.populate(placement, code, chunk_size, rng);
    scenario = cluster::inject_random_failure(placement, rng);
    cluster.erase_node(scenario.failed_node);
    censuses = recovery::build_censuses(placement, scenario);
  }

  static cluster::Placement make_placement(const cluster::CfsConfig& cfg,
                                           std::size_t stripes,
                                           std::uint64_t seed) {
    util::Rng rng(seed);
    return cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes,
                                      rng);
  }

  void verify_recovered() {
    for (const auto& lost : scenario.lost) {
      const auto* recovered = cluster.find_chunk(scenario.failed_node,
                                                 lost.stripe, lost.chunk_index);
      ASSERT_NE(recovered, nullptr)
          << "stripe " << lost.stripe << " chunk " << lost.chunk_index;
      EXPECT_EQ(*recovered, originals[lost.stripe][lost.chunk_index]);
    }
  }
};

TEST(ClusterExecute, CarPlanRecoversEveryLostChunkBitExactly) {
  RecoveryFixture f(0, 101, 12, 64 * 1024);
  const auto balanced = recovery::balance_greedy(f.placement, f.censuses, {50});
  const auto plan = recovery::build_car_plan(
      f.placement, f.code, balanced.solutions, 64 * 1024,
      f.scenario.failed_node);
  const auto report = f.cluster.execute(plan);
  f.verify_recovered();
  EXPECT_GT(report.wall_s, 0.0);
  EXPECT_GT(report.compute_s, 0.0);
  EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
  EXPECT_EQ(report.intra_rack_bytes, plan.intra_rack_bytes());
  EXPECT_EQ(report.per_rack_cross_bytes,
            plan.per_rack_cross_bytes(f.placement.topology()));
}

TEST(ClusterExecute, RrPlanRecoversEveryLostChunkBitExactly) {
  RecoveryFixture f(1, 202, 10, 64 * 1024);
  util::Rng rng(7);
  const auto rr = recovery::plan_rr(f.placement, f.censuses, rng);
  const auto plan = recovery::build_rr_plan(f.placement, f.code, rr, 64 * 1024,
                                            f.scenario.failed_node);
  const auto report = f.cluster.execute(plan);
  f.verify_recovered();
  EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
}

TEST(ClusterExecute, Cfs3CarAndRrAgreeOnRecoveredBytes) {
  RecoveryFixture f(2, 303, 8, 32 * 1024);
  const auto balanced = recovery::balance_greedy(f.placement, f.censuses, {50});
  const auto plan = recovery::build_car_plan(
      f.placement, f.code, balanced.solutions, 32 * 1024,
      f.scenario.failed_node);
  f.cluster.execute(plan);
  f.verify_recovered();
}

TEST(ClusterExecute, MissingBufferRaises) {
  RecoveryFixture f(0, 404, 4, 4 * 1024);
  const auto solutions = recovery::plan_car_initial(f.placement, f.censuses);
  const auto plan = recovery::build_car_plan(
      f.placement, f.code, solutions, 4 * 1024, f.scenario.failed_node);
  // Erase a node that still hosts survivor chunks referenced by the plan:
  // pick the first aggregator (source of the first transfer or compute).
  cluster::NodeId victim = f.scenario.failed_node;
  for (const auto& step : plan.steps) {
    if (step.kind == recovery::StepKind::kTransfer &&
        step.src != f.scenario.failed_node) {
      victim = step.src;
      break;
    }
    if (step.kind == recovery::StepKind::kCompute &&
        step.node != f.scenario.failed_node) {
      victim = step.node;
      break;
    }
  }
  ASSERT_NE(victim, f.scenario.failed_node);
  f.cluster.erase_node(victim);
  EXPECT_THROW(f.cluster.execute(plan), std::runtime_error);
}

TEST(Cluster, RejectsOutOfRangeBufferIds) {
  Cluster cluster(Topology({2, 2}), fast_config());
  // chunk_index >= 2^24 or stripe >= 2^39 cannot be packed into a buffer
  // key and must be rejected instead of silently colliding.
  EXPECT_THROW(cluster.store_chunk(0, 0, 1ull << 24, rs::Chunk{1}),
               std::out_of_range);
  EXPECT_THROW(cluster.store_chunk(0, 1ull << 39, 0, rs::Chunk{1}),
               std::out_of_range);
  EXPECT_THROW((void)cluster.find_chunk(0, 0, 1ull << 24), std::out_of_range);
  EXPECT_THROW((void)cluster.find_chunk(0, 1ull << 39, 0), std::out_of_range);
}

TEST(Cluster, WideChunkIndexDoesNotCollideAcrossStripes) {
  // Regression: the old key packed (stripe << 20 | index), so stripe 0 /
  // index 2^20 collided with stripe 1 / index 0 and its *step-output*
  // cousins near bit 63.
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(0, 0, 1ull << 20, rs::Chunk{1, 1});
  cluster.store_chunk(0, 1, 0, rs::Chunk{2, 2});
  const auto* wide = cluster.find_chunk(0, 0, 1ull << 20);
  const auto* narrow = cluster.find_chunk(0, 1, 0);
  ASSERT_NE(wide, nullptr);
  ASSERT_NE(narrow, nullptr);
  EXPECT_EQ(*wide, (rs::Chunk{1, 1}));
  EXPECT_EQ(*narrow, (rs::Chunk{2, 2}));
}

TEST(ClusterExecute, TransferSizeMismatchRaises) {
  // The plan declares 2048 bytes but the stored payload holds 1024: traffic
  // accounting would silently diverge from the bytes actually moved, so the
  // emulator must refuse.
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
  const auto plan = one_transfer_plan(0, 2, 2048);
  EXPECT_THROW(cluster.execute(plan), std::runtime_error);
}

TEST(ClusterExecute, LoopbackTransferReportsZeroBytes) {
  // src == dst never touches a NIC or rack link: zero reported traffic, in
  // agreement with the counting back-end.
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(1, 0, 0, rs::Chunk(4096, 3));
  const auto plan = one_transfer_plan(1, 1, 4096);
  const auto report = cluster.execute(plan);
  EXPECT_EQ(report.cross_rack_bytes, 0u);
  EXPECT_EQ(report.intra_rack_bytes, 0u);
  for (const auto bytes : report.per_rack_cross_bytes) EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(plan.cross_rack_bytes(), 0u);
  EXPECT_EQ(plan.intra_rack_bytes(), 0u);
}

TEST(ClusterExecute, VirtualClockSingleTransferMatchesAnalyticTime) {
  // Topology {2,2} with fast_config: rack link rate = 2 * 200e6 / 4 =
  // 100 MB/s is the bottleneck hop, so a 64 KiB cross-rack transfer takes
  // exactly 65536 / 100e6 virtual seconds.
  Cluster cluster(Topology({2, 2}), virtual_config());
  cluster.store_chunk(0, 0, 0, rs::Chunk(64 * 1024, 9));
  const auto report = cluster.execute(one_transfer_plan(0, 2, 64 * 1024));
  EXPECT_NEAR(report.wall_s, 65536.0 / 100e6, 1e-12);
  EXPECT_EQ(report.cross_rack_bytes, 65536u);
}

TEST(ClusterExecute, VirtualClockRecoversBitExactlyAndDeterministically) {
  auto run = [] {
    RecoveryFixture f(0, 101, 12, 64 * 1024, virtual_config());
    const auto balanced =
        recovery::balance_greedy(f.placement, f.censuses, {50});
    const auto plan = recovery::build_car_plan(
        f.placement, f.code, balanced.solutions, 64 * 1024,
        f.scenario.failed_node);
    const auto report = f.cluster.execute(plan);
    f.verify_recovered();
    EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
    EXPECT_EQ(report.intra_rack_bytes, plan.intra_rack_bytes());
    return report;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.wall_s, 0.0);
  EXPECT_GT(a.compute_s, 0.0);
  EXPECT_GT(a.transmission_s(), 0.0);
  // Bit-identical across runs — exact double equality is intentional.
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.replacement_compute_s, b.replacement_compute_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.intra_rack_bytes, b.intra_rack_bytes);
  EXPECT_EQ(a.per_rack_cross_bytes, b.per_rack_cross_bytes);
}

TEST(ClusterExecute, VirtualClockThousandStripeSweepIsFast) {
  // Under the seed implementation this plan would spawn one thread per step
  // and sleep through emulated transfer times; on the virtual clock it
  // completes in host milliseconds.
  RecoveryFixture f(1, 707, 1000, 1024, virtual_config());
  const auto balanced = recovery::balance_greedy(f.placement, f.censuses,
                                                 {50});
  const auto plan = recovery::build_car_plan(
      f.placement, f.code, balanced.solutions, 1024, f.scenario.failed_node);
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = f.cluster.execute(plan);
  const std::chrono::duration<double> host =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(host.count(), 5.0);  // generous bound for loaded CI machines
  EXPECT_GT(report.wall_s, 0.0);
  EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
  f.verify_recovered();
}

TEST(ClusterExecute, WindowedVirtualPlanNeverBeatsUnwindowed) {
  // Bounding in-flight stripes can only lengthen (or keep) the virtual
  // makespan, and traffic must be unchanged.
  RecoveryFixture f(0, 515, 16, 32 * 1024, virtual_config());
  const auto balanced = recovery::balance_greedy(f.placement, f.censuses,
                                                 {50});
  const auto plan = recovery::build_car_plan(
      f.placement, f.code, balanced.solutions, 32 * 1024,
      f.scenario.failed_node);
  RecoveryFixture g(0, 515, 16, 32 * 1024, virtual_config());
  const auto serial = recovery::schedule_windowed(plan, 1);
  const auto full = f.cluster.execute(plan);
  const auto windowed = g.cluster.execute(serial);
  EXPECT_GE(windowed.wall_s, full.wall_s * (1.0 - 1e-9));
  EXPECT_EQ(windowed.cross_rack_bytes, full.cross_rack_bytes);
}

TEST(ClusterExecute, DefaultConfigIsDeterministic) {
  // The default EmulConfig runs on the virtual clock: two identical runs
  // report bit-equal timelines, not two wall-clock measurements.
  auto run = [] {
    RecoveryFixture f(0, 101, 12, 64 * 1024, EmulConfig{});
    const auto balanced =
        recovery::balance_greedy(f.placement, f.censuses, {50});
    const auto plan = recovery::build_car_plan(
        f.placement, f.code, balanced.solutions, 64 * 1024,
        f.scenario.failed_node);
    const auto report = f.cluster.execute(plan);
    f.verify_recovered();
    return report;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.wall_s, 0.0);
  EXPECT_GT(a.compute_s, 0.0);
  // Exact double equality is intentional.
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.replacement_compute_s, b.replacement_compute_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.intra_rack_bytes, b.intra_rack_bytes);
  EXPECT_EQ(a.per_rack_cross_bytes, b.per_rack_cross_bytes);
}

TEST(ClusterExecute, CyclicPlanIsRejected) {
  // A cycle with no roots, and one behind a runnable prefix: both are
  // rejected before any step runs, and the replacement guard is released.
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
  auto no_roots = one_transfer_plan(0, 2, 1024);
  no_roots.steps.push_back(no_roots.steps[0]);
  no_roots.steps[1].id = 1;
  no_roots.steps[0].deps = {1};
  no_roots.steps[1].deps = {0};
  EXPECT_THROW(cluster.execute(no_roots), util::CheckError);

  // 0 -> 1 <-> 2: step 0 could run, steps 1 and 2 never can.
  auto behind_prefix = one_transfer_plan(0, 2, 1024);
  for (std::size_t id = 1; id <= 2; ++id) {
    recovery::PlanStep step = behind_prefix.steps[0];
    step.id = id;
    step.src = id == 1 ? 2 : 3;
    step.dst = id == 1 ? 3 : 1;
    behind_prefix.steps.push_back(std::move(step));
  }
  behind_prefix.steps[1].deps = {0, 2};
  behind_prefix.steps[2].deps = {1};
  EXPECT_THROW(cluster.execute(behind_prefix), util::CheckError);
  EXPECT_EQ(cluster.find_chunk(2, 0, 0), nullptr);  // step 0 never ran
  EXPECT_TRUE(cluster.guarded_replacements().empty());
}

TEST(ClusterExecute, FailedPlanReservesNoLinkTime) {
  // Step 0 can run; step 1's payload is missing, so the payload pass
  // throws midway.  The timing pass never starts: no link is reserved and
  // the clock stays where it was.
  const Topology topology({2, 2});
  Cluster cluster(topology, fast_config());
  cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
  auto plan = one_transfer_plan(0, 2, 1024);
  recovery::PlanStep missing = plan.steps[0];
  missing.id = 1;
  missing.src = 1;
  missing.dst = 3;
  missing.payload = recovery::BufferRef::chunk(0, 1);  // never stored
  missing.deps = {0};
  plan.steps.push_back(std::move(missing));
  cluster.clock().advance_to(1.5);

  EXPECT_THROW(cluster.execute(plan), util::StateError);
  EXPECT_EQ(cluster.clock().now(), 1.5);
  for (cluster::NodeId node = 0; node < topology.num_nodes(); ++node) {
    EXPECT_EQ(cluster.node_up_link(node).next_free(), 0.0) << node;
    EXPECT_EQ(cluster.node_down_link(node).next_free(), 0.0) << node;
  }
  for (cluster::RackId rack = 0; rack < topology.num_racks(); ++rack) {
    EXPECT_EQ(cluster.rack_up_link(rack).next_free(), 0.0) << rack;
    EXPECT_EQ(cluster.rack_down_link(rack).next_free(), 0.0) << rack;
  }
}

TEST(ClusterExecute, EmptyPlanIsANoOp) {
  Cluster cluster(Topology({2, 2}), fast_config());
  recovery::RecoveryPlan plan;
  plan.chunk_size = 1;
  const auto report = cluster.execute(plan);
  EXPECT_EQ(report.wall_s, 0.0);
  EXPECT_EQ(report.cross_rack_bytes, 0u);
}

TEST(ClusterExecute, InvalidConfigRejected) {
  EmulConfig bad = fast_config();
  bad.page_bytes = 0;
  EXPECT_THROW(Cluster(Topology({2}), bad), std::invalid_argument);
  EmulConfig bad_gf = fast_config();
  bad_gf.virtual_gf_bps = 0.0;
  EXPECT_THROW(Cluster(Topology({2}), bad_gf), std::invalid_argument);
}

TEST(SerialLink, RateWindowDegradesThroughput) {
  SerialLink link(1e6);  // 1 MB/s
  link.add_rate_window(0.0, 10.0, 0.5);
  // 100 KB at half rate: 0.2 s instead of 0.1 s.
  EXPECT_DOUBLE_EQ(link.preview(0.0, 100'000), 0.2);
  EXPECT_DOUBLE_EQ(link.reserve(0.0, 100'000), 0.2);
}

TEST(SerialLink, BlackoutStallsUntilWindowCloses) {
  SerialLink link(1e6);
  link.add_rate_window(0.0, 1.0, 0.0);
  // Nothing moves during the blackout; the transfer drains after it.
  EXPECT_DOUBLE_EQ(link.reserve(0.0, 100'000), 1.1);
  // Overlapping windows multiply: 0.5 * 0.5 = quarter rate.
  SerialLink slow(1e6);
  slow.add_rate_window(0.0, 10.0, 0.5);
  slow.add_rate_window(0.0, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(slow.reserve(0.0, 100'000), 0.4);
}

TEST(SerialLink, TransferStraddlingWindowIntegratesPiecewise) {
  SerialLink link(1e6);
  link.add_rate_window(0.05, 0.15, 0.0);
  // 100 KB: 50 KB drain in [0, 0.05), blackout until 0.15, rest by 0.2.
  EXPECT_DOUBLE_EQ(link.reserve(0.0, 100'000), 0.2);
}

TEST(SerialLink, RejectsMalformedRateWindows) {
  SerialLink link(1e6);
  EXPECT_THROW(link.add_rate_window(0.5, 0.5, 0.5), util::CheckError);
  EXPECT_THROW(link.add_rate_window(-1.0, 1.0, 0.5), util::CheckError);
  EXPECT_THROW(link.add_rate_window(0.0, 1.0, -0.1), util::CheckError);
}

TEST(LinkPath, PreviewMatchesReserveExactly) {
  Cluster cluster(Topology({3, 3}), virtual_config());
  LinkPath path = cluster.path(0, 4);  // cross-rack: 4 hops
  ASSERT_EQ(path.hops().size(), 4u);
  const double projected = path.preview(0.0, 300'000, 16 * 1024);
  EXPECT_DOUBLE_EQ(path.reserve(0.0, 300'000, 16 * 1024), projected);
  // Loopback paths complete instantly.
  LinkPath self = cluster.path(2, 2);
  EXPECT_TRUE(self.loopback());
  EXPECT_DOUBLE_EQ(self.reserve(5.0, 1'000'000, 1024), 5.0);
}

TEST(Cluster, DropNodeIsIdempotentAndFailsFurtherUse) {
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(1, 0, 0, rs::Chunk{1, 2, 3});
  EXPECT_FALSE(cluster.is_dropped(1));

  cluster.drop_node(1);
  EXPECT_TRUE(cluster.is_dropped(1));
  EXPECT_EQ(cluster.find_chunk(1, 0, 0), nullptr);  // buffers wiped
  EXPECT_THROW(cluster.store_chunk(1, 0, 0, rs::Chunk{9}), util::StateError);

  cluster.drop_node(1);  // idempotent: second drop is a no-op
  EXPECT_TRUE(cluster.is_dropped(1));
  EXPECT_THROW(cluster.drop_node(99), std::out_of_range);
}

TEST(Cluster, DropNodeRefusesTheGuardedReplacement) {
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.add_replacement_guard(2);
  EXPECT_THROW(cluster.drop_node(2), util::CheckError);
  EXPECT_FALSE(cluster.is_dropped(2));
  cluster.drop_node(3);  // other nodes still droppable

  cluster.remove_replacement_guard(2);
  cluster.drop_node(2);  // guard released: now allowed
  EXPECT_TRUE(cluster.is_dropped(2));
}

TEST(Cluster, ReplacementGuardsCoverEveryGeneration) {
  Cluster cluster(Topology({3, 3}), fast_config());
  // Generation 1 recovers onto node 0; generation 2 (a second failure's
  // re-plan) onto node 4.  BOTH must stay protected: the resumed plan
  // still reads generation 1's published outputs.
  const auto gen1 = cluster.add_replacement_guard(0);
  const auto gen2 = cluster.add_replacement_guard(4);
  EXPECT_LT(gen1, gen2);
  EXPECT_EQ(cluster.guarded_replacements(),
            (std::vector<cluster::NodeId>{0, 4}));
  EXPECT_THROW(cluster.drop_node(0), util::CheckError);  // first generation
  EXPECT_THROW(cluster.drop_node(4), util::CheckError);
  try {
    cluster.drop_node(0);
    FAIL() << "drop_node(0) should have thrown";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("generation " +
                                         std::to_string(gen1)),
              std::string::npos)
        << e.what();
  }

  // Guards are counted: a nested acquisition needs two releases.
  cluster.add_replacement_guard(0);
  cluster.remove_replacement_guard(0);
  EXPECT_THROW(cluster.drop_node(0), util::CheckError);
  cluster.remove_replacement_guard(0);
  cluster.drop_node(0);
  EXPECT_TRUE(cluster.is_dropped(0));
  EXPECT_THROW(cluster.add_replacement_guard(0), util::CheckError);
  EXPECT_THROW(cluster.remove_replacement_guard(1), util::CheckError);
  cluster.remove_replacement_guard(4);
}

TEST(ClusterExecute, PlanTouchingDroppedNodeRaises) {
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
  cluster.drop_node(3);
  auto plan = one_transfer_plan(0, 3, 1024);
  EXPECT_THROW(cluster.execute(plan), util::StateError);
  // The replacement itself being dropped is also rejected (guard installed
  // by execute() for the duration of the run).
  auto self_plan = one_transfer_plan(0, 1, 1024);
  self_plan.replacement = 1;
  cluster.add_replacement_guard(1);
  EXPECT_THROW(cluster.drop_node(1), util::CheckError);
  cluster.remove_replacement_guard(1);
}

// A plan naming a node the cluster does not have is rejected at the
// boundary, before any per-node store, liveness slot or link is indexed
// with it, by every entry point: the sequential execute(), the barrier
// arena run, and the streamed arena run (whose replay can reach a row
// before its payload pass does).
TEST(ClusterExecute, PlanEndpointOutsideTheTopologyIsRejected) {
  const auto plan = one_transfer_plan(0, 40, 1024);  // 2x2 = nodes 0..3
  auto expect_rejected = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "a plan naming node 40 was accepted";
    } catch (const util::CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("step 0"), std::string::npos) << what;
      EXPECT_NE(what.find("node 40"), std::string::npos) << what;
    }
  };
  {
    SCOPED_TRACE("execute");
    Cluster cluster(Topology({2, 2}), fast_config());
    cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
    expect_rejected([&] { (void)cluster.execute(plan); });
  }
  const auto arena = recovery::PlanArena::build(plan, 1024);
  {
    SCOPED_TRACE("execute_arena");
    Cluster cluster(Topology({2, 2}), virtual_config());
    cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
    expect_rejected([&] { (void)cluster.execute_arena(arena); });
  }
  {
    SCOPED_TRACE("execute_arena_streaming");
    Cluster cluster(Topology({2, 2}), virtual_config());
    cluster.store_chunk(0, 0, 0, rs::Chunk(1024, 7));
    ArenaStreamFeed feed;
    feed.publish(arena.num_base_steps());
    feed.close();
    expect_rejected(
        [&] { (void)cluster.execute_arena_streaming(arena, {}, feed); });
  }
}

TEST(Cluster, ClearStepOutputsKeepsChunks) {
  Cluster cluster(Topology({2, 2}), fast_config());
  cluster.store_chunk(0, 3, 1, rs::Chunk{1, 2});
  cluster.put_buffer(0, recovery::BufferRef::step(5), rs::Chunk{9, 9});
  ASSERT_NE(cluster.find_step_output(0, 5), nullptr);
  cluster.clear_step_outputs();
  EXPECT_EQ(cluster.find_step_output(0, 5), nullptr);
  ASSERT_NE(cluster.find_chunk(0, 3, 1), nullptr);
}

}  // namespace
}  // namespace car::emul
