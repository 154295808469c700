// Declarative fault-injection scenarios.
//
// A Scenario bundles everything one recovery experiment needs — topology,
// code, workload, strategy, retry policy, a FaultPlan, and the node crashes
// — and can be written as a small line-oriented text spec (`carctl
// inject-run --spec file`, `carctl rebuild-run --spec file`).  The spec
// grammar:
//
//   # comment
//   name mid-recovery-crash
//   racks 4,3,3            # nodes per rack
//   k 4
//   m 2
//   stripes 12
//   chunk-kib 64
//   slice-kib 16           # optional; > 0 = slice-pipelined execution
//   seed 7
//   strategy car           # car | rr
//   fail-node 2            # optional; default: seeded random data node
//   node-mbps 100
//   oversub 5
//   page-kib 16
//   timeout 0.25           # per-transfer timeout, seconds (> 0; inf:
//                          # never, which no drop fault may use)
//   max-attempts 6         # tries per transfer, >= 1
//   backoff-base 0.02      # backoff-factor / backoff-cap / backoff-jitter
//   data-mode metadata     # optional; real | metadata (see Scenario)
//   sample 4               # sampled real-byte stripes under data-mode
//   fault link side=rack-up id=0 start=0 end=0.3 factor=0
//   fault drop step=3 attempts=1,2 prob=0.5
//   fault corrupt attempts=1
//   fault crash node=5 at-fraction=0.4     # or at-time=1.25
//   crash node=5 at=0.4    # rolling failures: repeatable, times
//   crash node=9 at=1.2    # non-decreasing, duplicate nodes rejected
//   batch-stripes 4        # rebuild control plane: stripes per batch
//   concurrency 2          # ... and concurrent in-flight batches
//
// Node crashes are scenario events, not faults: `fault crash` and the
// declarative rolling-failure form `crash node=N at=T` each append one
// NodeCrash to Scenario::crashes, in spec order.  A node named twice (by
// any crash line or by fail-node) or an out-of-order `crash` time is a
// parse error naming the offending line.
//
// Both runners share one testbed (Testbed: the spec's cluster and random
// placement, seeded materialisation, and the byte-exact Verdict).
// run_scenario executes one plan through ResilientRuntime, which fires the
// crashes as triggers; rebuild::run_rebuild_scenario turns them into
// membership events of the rebuild coordinator.
//
// Canned scenarios (link-flap, mid-recovery-crash, slow-straggler-rack,
// degraded-core) are embedded specs parsed through the same grammar, so the
// parser is exercised by every CI run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "emul/cluster.h"
#include "emul/recover.h"
#include "inject/fault.h"
#include "inject/runtime.h"
#include "recovery/replan.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car::inject {

/// Payload policy of a spec's `data-mode` key (see Scenario::data_mode).
enum class DataMode : std::uint8_t { kReal, kMetadata };

struct Scenario {
  std::string name = "custom";
  std::vector<std::size_t> racks{4, 3, 3};
  std::size_t k = 4;
  std::size_t m = 2;
  std::size_t stripes = 12;
  std::uint64_t chunk_bytes = 64 * 1024;
  std::uint64_t page_bytes = 16 * 1024;
  /// Slice-pipelined execution granularity (spec key `slice-kib`).  0 runs
  /// the classic chunk-granular engine; > 0 lowers the plan onto that grid
  /// (recovery/plan_arena.h) so transfers and partial decodes overlap per
  /// slice.  Recovered bytes are identical either way.
  std::uint64_t slice_bytes = 0;
  std::uint64_t seed = 7;
  /// Rack-aware + partial decoding, or ship-and-decode (spec key
  /// `strategy`, parsed by recovery::parse_strategy).
  recovery::Strategy strategy = recovery::Strategy::kCar;
  /// Node to fail initially; unset = seeded random data-bearing node.
  std::optional<cluster::NodeId> fail_node;
  /// Payload policy (spec key `data-mode`: real | metadata).  Unset = the
  /// classic flow: one shared rng stream populates every stripe.  kReal
  /// and kMetadata both switch to per-stripe seeded data
  /// (emul::Cluster::stripe_seed) with the failure drawn *before* any
  /// population, so the two modes see identical placement, failure, plan,
  /// and event log; kMetadata then materialises only the sampled stripes
  /// (Testbed::data) while kReal materialises all of them — the
  /// differential pair behind the metadata-mode tests.
  std::optional<DataMode> data_mode;
  /// Sampled (real-byte, bit-exact-verified) stripes under data-mode
  /// metadata: the first `sample` affected stripes in stripe-id order
  /// (emul::first_affected_stripes; spec key `sample`, default 4, at least
  /// 1).
  std::size_t sample_stripes = 4;
  double node_bps = 100e6;
  double oversubscription = 5.0;
  /// Rebuild control plane (src/rebuild) knobs: stripes dispatched per
  /// batch (spec key `batch-stripes`) and concurrent in-flight batches
  /// (spec key `concurrency`).  Ignored by run_scenario.
  std::size_t rebuild_batch_stripes = 4;
  std::size_t rebuild_concurrency = 2;
  RetryPolicy retry;
  FaultPlan faults;
  /// Node crashes (`fault crash`, `crash`), in spec order.
  std::vector<NodeCrash> crashes;
};

/// Parse a text spec (see the grammar above).  Throws std::invalid_argument
/// naming the offending line on any unknown key, malformed value, or
/// inconsistent fault description.
Scenario parse_scenario(const std::string& text);

/// Names of the embedded canned scenarios, in listing order.
[[nodiscard]] std::vector<std::string> canned_scenario_names();

/// Fetch an embedded scenario by name (throws std::invalid_argument for
/// unknown names; see canned_scenario_names).
Scenario canned_scenario(const std::string& name);

/// A run's byte check of the recovered chunks against the originals.
struct Verdict {
  /// Stripes materialised with real bytes: all of them, or the sample
  /// under data-mode metadata (only those carry bytes to check).
  std::size_t stripes_materialised = 0;
  std::size_t chunks_expected = 0;  // outputs of materialised stripes
  std::size_t chunks_verified = 0;  // ... that matched the original bytes
  bool bit_exact = false;           // chunks_verified == chunks_expected
};

/// The paper's testbed for one scenario: the spec's fabric as an emulated
/// cluster and a random rack-fault-tolerant placement drawn from the
/// scenario's seeded stream.  A runner fills it with bytes, fails nodes,
/// recovers them onto one replacement, and takes its verdict.
struct Testbed {
  explicit Testbed(const Scenario& scenario);

  /// Seeded materialisation (emul::Cluster::populate_sampled) of every
  /// stripe, or under data-mode metadata of the first `sample` stripes hit
  /// by `failed` (emul::first_affected_stripes), which become data's
  /// sample.  Split over `shards` threads; no byte depends on the count.
  void materialise(std::span<const cluster::NodeId> failed,
                   std::size_t shards);

  /// Byte-compare the recovered `outputs` (items with .stripe and
  /// .chunk_index) held by `replacement` against the originals.
  template <typename Outputs>
  [[nodiscard]] Verdict verdict(cluster::NodeId replacement,
                                const Outputs& outputs) const {
    const auto counts =
        emul::verify_outputs(cluster, replacement, outputs, originals);
    return {originals.size(), counts.expected, counts.verified,
            counts.verified == counts.expected};
  }

  const Scenario& scenario;
  rs::Code code;
  emul::Cluster cluster;
  util::Rng rng;  // the scenario's stream, past the placement draw
  cluster::Placement placement;
  emul::Originals originals;  // the bytes of every materialised stripe
  DataPolicy data;  // all real, or metadata-only but for the sample
};

/// Everything a scenario run produced, for assertions and reporting.
struct ScenarioOutcome : Verdict {
  cluster::NodeId failed_node = 0;  // the initial failure
  RunResult run;
};

/// Build the testbed, populate it, fail a node, plan recovery with the
/// scenario's strategy straight into a validated arena on the scenario's
/// slice grid (recovery::plan_multi_failure_arena), and execute it under
/// the scenario's FaultPlan and crashes via ResilientRuntime.  Recovered
/// chunks are compared byte-for-byte against the originals.
/// Deterministic: the same scenario yields the same ScenarioOutcome
/// (including a byte-identical EventLog).
ScenarioOutcome run_scenario(const Scenario& scenario);

}  // namespace car::inject
