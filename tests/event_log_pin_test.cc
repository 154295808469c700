// Pinned digests of fault-injection and rebuild runs.
//
// Every canned inject scenario (x strategy x chunk-granular / 16 KiB
// slices), both canned rebuild scenarios (x strategy), three crash-trigger
// edge cases, and a real-byte corrupt-fault run (chunk-granular and 16 KiB
// slices) run here, and two 64-bit FNV-1a digests of each are
// compared against constants recorded from a reference build: one over
// EventLog::to_json(), one over a canonical text form of the run's result
// (traffic report, retry stats, re-plan outcome, final plan, rebuild
// metrics).  A change to the step loop that moves any event, byte, or
// timestamp — even one the aggregate assertions elsewhere would miss —
// fails here and names the run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "inject/runtime.h"
#include "inject/scenario.h"
#include "rebuild/scenario.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/plan_arena.h"
#include "util/rng.h"

namespace car {
namespace {

std::string hex_digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  std::array<char, 17> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(h));
  return {buf.data()};
}

/// Exact (hex-float) rendering, so a one-ulp timeline drift changes the
/// digest.
std::string exact(double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%a", v);
  return {buf.data()};
}

std::string describe(const emul::ExecutionReport& r) {
  std::string out = "report " + exact(r.wall_s) + " " + exact(r.compute_s) +
                    " " + exact(r.replacement_compute_s) + " " +
                    std::to_string(r.cross_rack_bytes) + " " +
                    std::to_string(r.intra_rack_bytes) + " [";
  for (const auto b : r.per_rack_cross_bytes) out += std::to_string(b) + ",";
  return out + "]\n";
}

std::string describe(const inject::RunStats& s) {
  return "stats " + std::to_string(s.attempts) + " " +
         std::to_string(s.retries) + " " + std::to_string(s.timeouts) + " " +
         std::to_string(s.drops) + " " + std::to_string(s.corruptions) + " " +
         std::to_string(s.replans) + " " + std::to_string(s.cancelled_steps) +
         " " + std::to_string(s.wasted_wire_bytes) + "\n";
}

std::string describe(const recovery::BufferRef& ref) {
  return ref.kind == recovery::BufferRef::Kind::kChunk
             ? "c" + std::to_string(ref.stripe) + "#" +
                   std::to_string(ref.chunk_index)
             : "s" + std::to_string(ref.step_id);
}

/// The arena's base steps, one line each in the form the pins were
/// recorded from (one RecoveryPlan step per line): a transfer's node, and a
/// compute's endpoints, payload and cross-rack flag, print PlanStep's
/// defaults.
std::string describe(const recovery::PlanArena& plan) {
  std::string out = "plan " + std::to_string(plan.replacement()) + " " +
                    std::to_string(plan.replacement_rack()) + " " +
                    std::to_string(plan.chunk_size()) + "\n";
  for (std::uint64_t id = 0; id < plan.num_base_steps(); ++id) {
    const bool transfer = plan.kind(id) == recovery::StepKind::kTransfer;
    out += std::to_string(id) + " " + (transfer ? "T" : "C") + " " +
           std::to_string(plan.stripe(id)) + " deps[";
    for (const auto d : plan.deps(id)) out += std::to_string(d) + ",";
    out += "] " + std::to_string(transfer ? plan.src(id) : 0) + ">" +
           std::to_string(transfer ? plan.dst(id) : 0) + " " +
           describe(transfer ? plan.payload(id) : recovery::BufferRef{}) +
           (transfer && plan.cross_rack(id) ? " x" : " i") + " @" +
           std::to_string(transfer ? 0 : plan.node(id)) + " in[";
    for (std::size_t i = 0; i < plan.num_inputs(id); ++i) {
      const recovery::ComputeInput in = plan.input(id, i);
      out += describe(in.buffer) + "*" + std::to_string(in.coeff) + ",";
    }
    out += "] " +
           std::to_string(plan.chunk_size() *
                          (transfer ? 1 : plan.num_inputs(id))) +
           "\n";
  }
  for (const auto& o : plan.outputs()) {
    out += "out " + std::to_string(o.stripe) + "#" +
           std::to_string(o.chunk_index) + "<-" + std::to_string(o.step_id) +
           "\n";
  }
  return out;
}

/// The trailing "valid" stands for the re-plan's validation report the
/// pins were recorded with; every arena a run executes passed validation,
/// since the planner throws on a failed report.
std::string describe(const inject::RunResult& run) {
  return describe(run.report) + describe(run.stats) +
         (run.replanned ? "replanned\n" : "single plan\n") +
         describe(run.final_plan) + "valid\n";
}

struct Digests {
  std::string log;
  std::string result;
};

/// Reference digests, keyed by run name.
const std::map<std::string, Digests>& pinned() {
  static const std::map<std::string, Digests> kPinned = {
      {"inject/link-flap/car/0", {"3566b9829d09bbf9", "0ffb1cc061dfac50"}},
      {"inject/link-flap/car/16", {"11b4ed1489921274", "2eb7634aea46fb62"}},
      {"inject/link-flap/rr/0", {"c4b26c6408d93602", "f70d3c08d89395f1"}},
      {"inject/link-flap/rr/16", {"861d76e3c8bf7511", "2d9abb43f2170978"}},
      {"inject/mid-recovery-crash/car/0",
       {"1315dca5424c01d8", "2f135e1514099cef"}},
      {"inject/mid-recovery-crash/car/16",
       {"3f1fa3d6bec3e6d2", "f21b85b14d829b98"}},
      {"inject/mid-recovery-crash/rr/0",
       {"e3701125320769bc", "36bcf22a01658648"}},
      {"inject/mid-recovery-crash/rr/16",
       {"8392ff757be15937", "2ea207b923174e2d"}},
      {"inject/slow-straggler-rack/car/0",
       {"4d939e4f7d38cf04", "54122b068316e906"}},
      {"inject/slow-straggler-rack/car/16",
       {"53a4c01f56f44e5c", "7c99ebd34560f47c"}},
      {"inject/slow-straggler-rack/rr/0",
       {"86aa380d5efe8c6e", "657c30a09a22efe9"}},
      {"inject/slow-straggler-rack/rr/16",
       {"866cce0ac00c0db2", "dae0be8d1ea1a55f"}},
      {"inject/degraded-core/car/0", {"f326ada957b98e64", "81bd9af04c7cf5a9"}},
      {"inject/degraded-core/car/16", {"48112cfbad8f01b4", "67a1721f8c8b1686"}},
      {"inject/degraded-core/rr/0", {"ac1d779287906c9c", "d8882c38248aecf4"}},
      {"inject/degraded-core/rr/16", {"62d50bcf79a6a3f8", "b930a984ec7d896a"}},
      {"rebuild/rolling-two-rack/car",
       {"fd480fbf2f5fa37c", "fb9f519b707503ab"}},
      {"rebuild/rolling-two-rack/rr", {"bf252731a48fdfc9", "156a90bf46c2e9e9"}},
      {"rebuild/rolling-triple/car", {"4e06e75a3b28ffb7", "561d77d02fb206c2"}},
      {"rebuild/rolling-triple/rr", {"ed7a2273c8af3ee0", "725c599786816277"}},
      {"unit/at-fraction-0", {"fc4b2129f8e51a4a", "9f5c4feb81b33d7f"}},
      {"unit/at-fraction-1", {"29bff9a71fcba165", "d2d9087b203da972"}},
      {"unit/at-time-sliced", {"f33d36898e036a49", "721c72690e82d03d"}},
      {"inject/corrupt/car/0", {"bd44412a1ff4ab08", "12ae68a6be4f5466"}},
      {"inject/corrupt/car/16", {"a07086c39a0733f7", "4361e51672c5bf67"}},
  };
  return kPinned;
}

void expect_pinned(const std::string& name, const std::string& log_json,
                   const std::string& result_text) {
  const Digests got{hex_digest(log_json), hex_digest(result_text)};
  const auto it = pinned().find(name);
  ASSERT_NE(it, pinned().end())
      << "no pinned digests for " << name << ": {\"" << name << "\", {\""
      << got.log << "\", \"" << got.result << "\"}},";
  EXPECT_EQ(got.log, it->second.log) << "event log of " << name;
  EXPECT_EQ(got.result, it->second.result) << "result of " << name;
}

TEST(PinnedRuns, CannedInjectScenarios) {
  for (const auto& name : inject::canned_scenario_names()) {
    for (const char* strategy : {"car", "rr"}) {
      for (const std::uint64_t slice_kib : {0, 16}) {
        auto scenario = inject::canned_scenario(name);
        scenario.strategy = recovery::parse_strategy(strategy);
        scenario.slice_bytes = slice_kib * 1024;
        const auto outcome = inject::run_scenario(scenario);
        const std::string key = "inject/" + name + "/" + strategy + "/" +
                                std::to_string(slice_kib);
        EXPECT_TRUE(outcome.bit_exact) << key;
        expect_pinned(key, outcome.run.log.to_json(),
                      describe(outcome.run) +
                          std::to_string(outcome.chunks_verified) + "/" +
                          std::to_string(outcome.chunks_expected));
      }
    }
  }
}

// Real-byte corrupt faults: every kTransferCorrupt detail carries the
// checksums of the sent slice and of the garbled copy the receiver saw, so
// the pinned log covers the payload bytes on the wire, not just the timing.
TEST(PinnedRuns, CorruptFaultChecksums) {
  constexpr const char* kSpec = R"(name corrupt
racks 4,3,3
k 4
m 2
stripes 12
chunk-kib 64
page-kib 16
seed 19
strategy car
node-mbps 100
oversub 5
timeout 0.5
max-attempts 6
backoff-base 0.02
backoff-factor 2
backoff-cap 0.25
backoff-jitter 0.2
fault corrupt attempts=1 prob=0.3
fault corrupt step=3 attempts=1,2
)";
  for (const std::uint64_t slice_kib : {0, 16}) {
    auto scenario = inject::parse_scenario(kSpec);
    scenario.slice_bytes = slice_kib * 1024;
    const auto outcome = inject::run_scenario(scenario);
    const std::string key = "inject/corrupt/car/" + std::to_string(slice_kib);
    EXPECT_TRUE(outcome.bit_exact) << key;
    EXPECT_GT(outcome.run.stats.corruptions, 0u) << key;
    const std::string log = outcome.run.log.to_json();
    EXPECT_NE(log.find("checksum sent="), std::string::npos) << key;
    expect_pinned(key, log,
                  describe(outcome.run) +
                      std::to_string(outcome.chunks_verified) + "/" +
                      std::to_string(outcome.chunks_expected));
  }
}

TEST(PinnedRuns, CannedRebuildScenarios) {
  for (const auto& name : rebuild::canned_rebuild_scenario_names()) {
    for (const char* strategy : {"car", "rr"}) {
      auto scenario = rebuild::canned_rebuild_scenario(name);
      scenario.strategy = recovery::parse_strategy(strategy);
      const auto outcome = rebuild::run_rebuild_scenario(scenario);
      const auto& r = outcome.result;
      const std::string key = "rebuild/" + name + "/" + strategy;
      EXPECT_TRUE(outcome.bit_exact) << key;
      std::string text = describe(r.report) + describe(r.stats);
      const auto& m = r.metrics;
      text += "metrics " + exact(m.makespan_s) + " " +
              exact(m.total_exposure_s) + " " + exact(m.max_exposure_s) +
              " " + exact(m.total_at_risk_s) + " " + exact(m.max_at_risk_s) +
              " " + std::to_string(m.scans) + " " +
              std::to_string(m.batches_dispatched) + " " +
              std::to_string(m.batches_cancelled) + " " +
              std::to_string(m.stripes_requeued) + " " +
              std::to_string(m.template_cache_hits) + " " +
              std::to_string(m.template_cache_misses) + "\n";
      for (const auto& chunk : r.recovered) {
        text += std::to_string(chunk.stripe) + "#" +
                std::to_string(chunk.chunk_index) + " ";
      }
      for (const auto& b : r.batches) {
        text += "\nbatch " + std::to_string(b.id) + " " +
                std::to_string(b.stripes) + " " + std::to_string(b.tier) +
                " " + exact(b.dispatched_at) + " " + exact(b.completed_at) +
                (b.cancelled ? " cancelled" : "");
      }
      expect_pinned(key, r.log.to_json(), text);
    }
  }
}

/// The inject runtime's unit-test stage: RS(4,2) on racks {4,3,3}, eight
/// stripes of 8 KiB, node 2 failed and recovered by a CAR plan.
struct Stage {
  static constexpr std::uint64_t kChunk = 8 * 1024;
  static constexpr cluster::NodeId kFailed = 2;
  cluster::Topology topology{std::vector<std::size_t>{4, 3, 3}};
  rs::Code code{4, 2};
  std::unique_ptr<emul::Cluster> cluster;
  std::optional<cluster::Placement> placement;
  std::vector<std::vector<rs::Chunk>> originals;
  recovery::RecoveryPlan plan;

  Stage() {
    emul::EmulConfig config;
    config.node_bps = 100e6;
    config.oversubscription = 5.0;
    config.page_bytes = 4 * 1024;
    cluster = std::make_unique<emul::Cluster>(topology, config);
    util::Rng rng(7);
    placement =
        cluster::Placement::random(topology, code.k(), code.m(), 8, rng);
    originals = cluster->populate(*placement, code, kChunk, rng);
    const auto failure = cluster::inject_node_failure(*placement, kFailed);
    cluster->erase_node(kFailed);
    const auto censuses = recovery::build_multi_censuses(
        *placement,
        recovery::make_multi_failure(*placement, {failure.failed_node}));
    const auto balanced = recovery::balance_multi(*placement, censuses, 50);
    plan = recovery::build_multi_car_plan(*placement, code, balanced.solutions,
                                          kChunk, kFailed);
  }

  void run(const std::string& key, const inject::NodeCrash& crash,
           std::uint64_t slice_bytes) {
    inject::ReplanContext context;
    context.crashes = {crash};
    context.placement = &*placement;
    context.code = &code;
    context.failed_nodes = {kFailed};
    inject::ResilientRuntime runtime(*cluster, {}, {}, 7);
    const auto result = runtime.execute(
        recovery::PlanArena::build(plan, slice_bytes), context);
    ASSERT_TRUE(result.replanned) << key;
    for (const auto& out : result.final_plan.outputs()) {
      const rs::Chunk* rec =
          cluster->find_chunk(kFailed, out.stripe, out.chunk_index);
      ASSERT_NE(rec, nullptr) << key;
      EXPECT_EQ(*rec, originals[out.stripe][out.chunk_index]) << key;
    }
    expect_pinned(key, result.log.to_json(), describe(result));
  }
};

TEST(PinnedRuns, CrashAtFractionZeroFiresBeforeTheFirstStep) {
  inject::NodeCrash crash;
  crash.node = 5;
  crash.at_fraction = 0.0;
  Stage().run("unit/at-fraction-0", crash, Stage::kChunk);
}

// At fraction 1.0 the trigger fires after the last completion but before
// the final publish: every output is salvaged, then the re-plan runs.
TEST(PinnedRuns, CrashAtFractionOneFiresBeforeTheFinalPublish) {
  inject::NodeCrash crash;
  crash.node = 5;
  crash.at_fraction = 1.0;
  Stage().run("unit/at-fraction-1", crash, Stage::kChunk);
}

TEST(PinnedRuns, TimeTriggeredCrashUnderSlicing) {
  inject::NodeCrash crash;
  crash.node = 8;
  crash.at_time_s = 0.0001;
  Stage().run("unit/at-time-sliced", crash, 2 * 1024);
}

}  // namespace
}  // namespace car
