#include "rebuild/scenario.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "recovery/exposure.h"
#include "util/check.h"

namespace car::rebuild {

namespace {

struct CannedSpec {
  const char* name;
  const char* spec;
};

// The acceptance case: RS(4,2), node 1 (rack 0) fails at t=0 and node 5
// (rack 1) fails mid-rebuild, so stripes hit by both failures exhaust
// their tolerance and must preempt fresh-degraded work after the re-scan.
constexpr const char* kRollingTwoRack = R"(# rolling failures in two racks
name rolling-two-rack
racks 4,4,4,3
k 4
m 2
stripes 24
chunk-kib 32
slice-kib 8
seed 11
strategy car
node-mbps 100
oversub 4
page-kib 8
timeout 0.5
max-attempts 5
crash node=1 at=0
crash node=5 at=0.004
batch-stripes 4
concurrency 2
)";

// Three rolling failures with RS(4,3): the full tolerance of the code is
// consumed one failure at a time, with two re-plan epochs.
constexpr const char* kRollingTriple = R"(# three rolling failures
name rolling-triple
racks 4,4,4,4
k 4
m 3
stripes 18
chunk-kib 32
slice-kib 8
seed 13
strategy car
node-mbps 100
oversub 4
page-kib 8
timeout 0.5
max-attempts 5
crash node=2 at=0
crash node=6 at=0.003
crash node=10 at=0.008
batch-stripes 3
concurrency 2
)";

constexpr CannedSpec kCanned[] = {
    {"rolling-two-rack", kRollingTwoRack},
    {"rolling-triple", kRollingTriple},
};

}  // namespace

std::vector<std::string> canned_rebuild_scenario_names() {
  std::vector<std::string> names;
  for (const CannedSpec& canned : kCanned) names.emplace_back(canned.name);
  return names;
}

inject::Scenario canned_rebuild_scenario(const std::string& name) {
  for (const CannedSpec& canned : kCanned) {
    if (name == canned.name) return inject::parse_scenario(canned.spec);
  }
  throw std::invalid_argument("unknown rebuild scenario: " + name);
}

RebuildScenarioOutcome run_rebuild_scenario(const inject::Scenario& scenario,
                                            std::size_t populate_shards) {
  CAR_CHECK(!scenario.crashes.empty(),
            "run_rebuild_scenario: the spec needs at least one `crash "
            "node=N at=T` event");
  CAR_CHECK_GT(populate_shards, std::size_t{0},
               "run_rebuild_scenario: populate_shards must be >= 1");
  std::vector<FailureEvent> events;
  std::vector<cluster::NodeId> crashed;
  for (const inject::NodeCrash& crash : scenario.crashes) {
    CAR_CHECK(crash.at_time_s.has_value(),
              "run_rebuild_scenario: rolling failures need `at=` virtual "
              "times (at-fraction is a single-plan trigger)");
    events.push_back({crash.node, *crash.at_time_s});
    crashed.push_back(crash.node);
  }

  inject::Testbed bed(scenario);
  bed.materialise(crashed, populate_shards);

  RebuildOptions options;
  options.strategy = scenario.strategy;
  options.chunk_bytes = scenario.chunk_bytes;
  options.slice_bytes = scenario.slice_bytes;
  options.batch_stripes = scenario.rebuild_batch_stripes;
  options.max_inflight = scenario.rebuild_concurrency;
  options.seed = scenario.seed;
  // Scan sharding is bit-identical to serial scanning for every count, so
  // reusing the populate shard knob cannot change a logged byte.
  options.scan_shards = populate_shards;
  options.retry = scenario.retry;
  options.faults = scenario.faults;
  options.data = bed.data;

  RebuildCoordinator coordinator(bed.cluster, bed.placement, bed.code,
                                 options);
  RebuildResult result = coordinator.run(events);

  // Completeness: every chunk that lived on a crashed node must have been
  // recovered, whether or not its stripe carried real bytes.
  recovery::RecoveredSet recovered;
  for (const inject::PublishedChunk& chunk : result.recovered) {
    recovered.mark(chunk.stripe, chunk.chunk_index);
  }
  for (const cluster::NodeId node : crashed) {
    for (const cluster::ChunkRef& ref : bed.placement.chunks_on_node(node)) {
      CAR_CHECK_STATE(
          recovered.contains(ref.stripe, ref.chunk_index),
          "run_rebuild_scenario: chunk s" + std::to_string(ref.stripe) + "#" +
              std::to_string(ref.chunk_index) + " lost on node " +
              std::to_string(node) + " was never recovered");
    }
  }

  // Bit-exactness: every materialised recovered chunk must match the
  // original encoding byte for byte.
  const inject::Verdict verdict =
      bed.verdict(result.replacement, result.recovered);
  return {verdict, std::move(result)};
}

}  // namespace car::rebuild
