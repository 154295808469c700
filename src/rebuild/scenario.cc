#include "rebuild/scenario.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "emul/recover.h"
#include "rs/code.h"
#include "util/check.h"
#include "util/for_each_shard.h"
#include "util/rng.h"

namespace car::rebuild {

namespace {

/// (stripe, chunk index) key matching recovery/exposure.cc's packing.
std::uint64_t chunk_key(cluster::StripeId stripe, std::size_t chunk_index) {
  return (static_cast<std::uint64_t>(stripe) << 16) |
         static_cast<std::uint64_t>(chunk_index);
}

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
  CAR_CHECK(!scenario.faults.node_crashes.empty(),
            "run_rebuild_scenario: the spec needs at least one `crash "
            "node=N at=T` event");
  CAR_CHECK_GT(populate_shards, std::size_t{0},
               "run_rebuild_scenario: populate_shards must be >= 1");
  for (const inject::NodeCrash& crash : scenario.faults.node_crashes) {
    CAR_CHECK(crash.at_time_s.has_value(),
              "run_rebuild_scenario: rolling failures need `at=` virtual "
              "times (at-fraction is a single-plan trigger)");
  }
  const bool metadata = scenario.data_mode == inject::DataMode::kMetadata;

  const cluster::Topology topology(scenario.racks);
  const rs::Code code(scenario.k, scenario.m);

  emul::EmulConfig config;
  config.node_bps = scenario.node_bps;
  config.oversubscription = scenario.oversubscription;
  config.page_bytes = scenario.page_bytes;
  emul::Cluster cluster(topology, config);

  util::Rng rng(scenario.seed);
  const auto placement = cluster::Placement::random(
      topology, scenario.k, scenario.m, scenario.stripes, rng);

  std::vector<FailureEvent> events;
  std::vector<cluster::NodeId> crashed;
  for (const inject::NodeCrash& crash : scenario.faults.node_crashes) {
    events.push_back({crash.node, *crash.at_time_s});
    crashed.push_back(crash.node);
  }

  // Per-stripe seeded data (emul::Cluster::stripe_seed) makes the stored
  // bytes a pure function of (seed, stripe) — shard assignment is free to
  // change without changing a byte anywhere.
  std::vector<cluster::StripeId> materialise;
  if (metadata) {
    materialise = emul::first_affected_stripes(placement, crashed,
                                               scenario.sample_stripes);
  } else {
    for (cluster::StripeId stripe = 0; stripe < scenario.stripes; ++stripe) {
      materialise.push_back(stripe);
    }
  }

  std::vector<std::vector<cluster::StripeId>> subsets(populate_shards);
  for (std::size_t i = 0; i < materialise.size(); ++i) {
    subsets[i % populate_shards].push_back(materialise[i]);
  }
  std::vector<emul::Originals> partials(populate_shards);
  util::for_each_shard(populate_shards, [&](std::size_t shard) {
    partials[shard] =
        cluster.populate_sampled(placement, code, scenario.chunk_bytes,
                                 scenario.seed, subsets[shard]);
  });
  emul::Originals originals = std::move(partials.front());
  for (std::size_t shard = 1; shard < populate_shards; ++shard) {
    originals.merge(partials[shard]);
  }

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
  options.faults.node_crashes.clear();  // membership events, not faults
  if (metadata) {
    options.data.metadata_only = true;
    options.data.sampled_stripes = materialise;
  }

  RebuildCoordinator coordinator(cluster, placement, code, options);
  RebuildScenarioOutcome outcome;
  outcome.result = coordinator.run(events);
  outcome.stripes_materialised = materialise.size();

  // Completeness: every chunk that lived on a crashed node must have been
  // recovered, whether or not its stripe carried real bytes.
  std::unordered_set<std::uint64_t> recovered;
  for (const inject::PublishedChunk& chunk : outcome.result.recovered) {
    recovered.insert(chunk_key(chunk.stripe, chunk.chunk_index));
  }
  for (const FailureEvent& event : events) {
    for (const cluster::ChunkRef& ref : placement.chunks_on_node(event.node)) {
      CAR_CHECK_STATE(
          recovered.contains(chunk_key(ref.stripe, ref.chunk_index)),
          "run_rebuild_scenario: chunk s" + std::to_string(ref.stripe) + "#" +
              std::to_string(ref.chunk_index) + " lost on node " +
              std::to_string(event.node) + " was never recovered");
    }
  }

  // Bit-exactness: every materialised recovered chunk must match the
  // original encoding byte for byte.
  const auto counts =
      emul::verify_outputs(cluster, outcome.result.replacement,
                           outcome.result.recovered, originals);
  outcome.chunks_expected = counts.expected;
  outcome.chunks_verified = counts.verified;
  outcome.bit_exact = outcome.chunks_verified == outcome.chunks_expected;
  return outcome;
}

}  // namespace car::rebuild
