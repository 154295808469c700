// Microbenchmarks for the CAR planning path itself, verifying the paper's
// §IV-D complexity claim: Algorithm 2 runs in O(e * r * s), i.e. planning is
// cheap relative to the recovery it optimises — plus the slice-pipelining
// makespan study on the fig9 fabric and a metadata-only scale sweep of the
// arena pipeline (census scan, solve, template-cached build, and the one
// sequential calendar-queue timing replay).
//
// Usage:
//   micro_recovery [--json <path>] [google-benchmark flags]
//
// --json writes the machine-readable baseline (schema car-recovery-bench/1,
// documented in docs/architecture.md); the repo's committed
// BENCH_recovery.json is produced this way.  The fig9 makespan points are
// measured on the virtual clock and are therefore bit-deterministic — CI
// diffs their structure and speedup direction, not host timing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "rebuild/scenario.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/replan.h"
#include "recovery/scheduler.h"
#include "simnet/flowsim.h"
#include "util/bytes.h"

#include "plan_oracle.h"

namespace {

using namespace car;

struct Scenario {
  cluster::Placement placement;
  cluster::FailureScenario failure;
  std::vector<recovery::MultiStripeCensus> censuses;
};

Scenario make_scenario(const cluster::CfsConfig& cfg, std::size_t stripes,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  auto failure = cluster::inject_random_failure(placement, rng);
  auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {failure.failed_node}));
  return {std::move(placement), std::move(failure), std::move(censuses)};
}

// ---------------------------------------------------------------------------
// JSON collection (mirrors bench/micro_gf.cc).

struct BenchMeta {
  std::string op;                  // "plan" | "execute" | "slice_lowering"
  std::uint64_t chunk_bytes = 0;
  std::uint64_t slice_bytes = 0;   // 0 = unsliced
};

std::map<std::string, BenchMeta>& meta_registry() {
  static std::map<std::string, BenchMeta> registry;
  return registry;
}

struct CollectedRun {
  std::string name;
  BenchMeta meta;
  std::int64_t iterations = 0;
  double real_seconds = 0.0;  // accumulated over all iterations
};

/// Console output as usual, plus collection for the --json reporter.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const auto it = meta_registry().find(run.benchmark_name());
      if (it == meta_registry().end()) continue;
      CollectedRun c;
      c.name = run.benchmark_name();
      c.meta = it->second;
      c.iterations = run.iterations;
      c.real_seconds = run.real_accumulated_time;
      collected_.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<CollectedRun>& collected() const noexcept {
    return collected_;
  }

 private:
  std::vector<CollectedRun> collected_;
};

// ---------------------------------------------------------------------------
// Fig9-fabric makespan study: sliced vs. unsliced execution of the same CAR
// plan on the virtual-clock emulator, paper-era hardware balance (1 GbE node
// links, 5x-oversubscribed core, 1.5 GB/s GF compute — see
// bench/fig9_recovery_time.cc).  The virtual clock makes every number here
// bit-deterministic; speedups are structural, not measurement noise.

constexpr std::uint64_t kFig9Chunk = util::kMiB;
constexpr std::uint64_t kFig9Slice = 64 * util::kKiB;
constexpr std::size_t kFig9Window = 1;
constexpr std::size_t kFig9Stripes = 12;

struct Fig9Point {
  std::string config;      // "cfs1" | "cfs2" | "cfs3"
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t racks = 0;
  double core_scale = 1.0;  // 0.5 = 50%-degraded core spec
  double unsliced_makespan_s = 0.0;
  double sliced_makespan_s = 0.0;

  [[nodiscard]] double speedup() const {
    return sliced_makespan_s > 0.0 ? unsliced_makespan_s / sliced_makespan_s
                                   : 0.0;
  }
};

emul::EmulConfig fig9_emul(double core_scale) {
  emul::EmulConfig cfg;
  cfg.node_bps = 125e6;        // 1 GbE
  // Scaling oversubscription scales every rack uplink proportionally, which
  // keeps cfs3's heterogeneous racks {6,4,5,3,2} heterogeneous.
  cfg.oversubscription = 5.0 / core_scale;
  cfg.virtual_gf_bps = 1.5e9;  // paper-era testbed CPUs, not this host
  return cfg;
}

Fig9Point measure_fig9_point(std::size_t cfg_index, double core_scale) {
  const auto cfg = cluster::paper_configs()[cfg_index];
  const auto s = make_scenario(cfg, kFig9Stripes, 0xF19 + cfg_index);
  const rs::Code code(cfg.k, cfg.m);
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::schedule_windowed(
      recovery::build_multi_car_plan(s.placement, code, balanced.solutions,
                                     kFig9Chunk, s.failure.failed_node),
      kFig9Window);

  emul::Cluster cluster(s.placement.topology(), fig9_emul(core_scale));
  util::Rng data_rng(0xDA7A + cfg_index);
  cluster.populate(s.placement, code, kFig9Chunk, data_rng);
  cluster.erase_node(s.failure.failed_node);

  Fig9Point point;
  point.config = cfg.name;
  point.k = cfg.k;
  point.m = cfg.m;
  point.racks = cfg.topology().num_racks();
  point.core_scale = core_scale;
  point.unsliced_makespan_s = cluster.execute(plan).wall_s;
  point.sliced_makespan_s =
      cluster.execute_arena(recovery::PlanArena::build(plan, kFig9Slice))
          .wall_s;
  return point;
}

std::vector<Fig9Point> measure_fig9_points() {
  std::vector<Fig9Point> points;
  for (const double core_scale : {1.0, 0.5}) {
    for (std::size_t i = 0; i < cluster::paper_configs().size(); ++i) {
      points.push_back(measure_fig9_point(i, core_scale));
    }
  }
  return points;
}

// ---------------------------------------------------------------------------
// Scale sweep: metadata-only sharded arena execution on uniform datacenter
// topologies (stripes x nodes x failure domain).  Mirrors
// `carctl emulate --metadata-only --shards N [--fail-rack]`.  Everything in
// a row except the sample verification is virtual-clock-deterministic, so
// CI diffs the numbers structurally (tools/bench_schema_diff.py).

struct ScaleSweepRow {
  // Sweep coordinates.
  std::size_t stripes = 0;
  std::size_t num_racks = 0;
  std::size_t rack_size = 0;
  std::string failure;  // "single-node" | "full-rack"
  std::size_t shards = 1;
  bool metadata_only = true;
  std::size_t sample = 4;
  // Measured (deterministic on the virtual clock).
  std::size_t affected_stripes = 0;
  std::size_t plan_steps = 0;
  double makespan_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  std::size_t verified_outputs = 0;
  std::size_t expected_outputs = 0;
  // Host-time phase breakdown (noisy; CI checks only the plan_speedup
  // ratio, which divides out the machine).  classic_* is the per-stripe
  // RecoveryPlan build (the tests' oracle, tests/plan_oracle.h) + PlanArena
  // lowering the scale path used to run; arena_s is the template-cached
  // instantiation that replaces both.
  double scan_s = 0.0;
  double solve_s = 0.0;  // rack selection + balancing (shared by both paths)
  double classic_plan_s = 0.0;
  double classic_lower_s = 0.0;
  double arena_s = 0.0;
  // Replay phase: the stripe-sharded payload pass plus the sequential
  // calendar-queue timing replay.
  double replay_s = 0.0;
  double end_to_end_s = 0.0;  // scan + solve + cached build + replay
  std::size_t template_cache_misses = 0;

  [[nodiscard]] double plan_speedup() const {
    return arena_s > 0.0 ? (classic_plan_s + classic_lower_s) / arena_s : 0.0;
  }
};

ScaleSweepRow measure_scale_point(ScaleSweepRow row) {
  constexpr std::uint64_t kChunk = util::kMiB;
  constexpr std::uint64_t kSeed = 0x5CA1E;
  cluster::CfsConfig cfg;
  cfg.name = "uniform";
  cfg.nodes_per_rack.assign(row.num_racks, row.rack_size);
  // The paper-scale code (CFS-2's RS(6,3)): realistic pick sizes make the
  // per-stripe plan rich enough that the template-cache ratio reflects
  // production stripes, not toy two-step plans.
  cfg.k = 6;
  cfg.m = 3;
  const rs::Code code(cfg.k, cfg.m);

  const auto tick = [] { return std::chrono::steady_clock::now(); };
  const auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };

  emul::Cluster cluster(cfg.topology(), fig9_emul(1.0));
  util::Rng place_rng(kSeed);
  const auto placement = cluster::Placement::random(
      cfg.topology(), cfg.k, cfg.m, row.stripes, place_rng);
  const auto& topology = placement.topology();

  util::Rng fail_rng(kSeed + 1);
  const auto first_failed =
      cluster::inject_random_failure(placement, fail_rng).failed_node;
  std::vector<cluster::NodeId> failed_nodes{first_failed};
  if (row.failure == "full-rack") {
    for (const auto node :
         topology.nodes_in_rack(topology.rack_of(first_failed))) {
      if (node != first_failed) failed_nodes.push_back(node);
    }
  }
  const auto mf = recovery::make_multi_failure(placement, failed_nodes);
  auto t = tick();
  const auto censuses =
      recovery::build_multi_censuses(placement, mf, row.shards);
  row.scan_s = secs(t, tick());
  t = tick();
  const auto balanced = recovery::balance_multi(placement, censuses, 0);
  row.solve_s = secs(t, tick());

  // Both planning paths are timed as the min over two builds.  The first
  // build of a few-hundred-MB plan pays first-touch page faults on every
  // fresh column, which is an allocator artifact rather than planning
  // cost — the rebuild control plane reuses its pools (and its template
  // cache) across batches, so steady-state cost is what the speedup
  // ratio should compare.
  std::optional<recovery::RecoveryPlan> classic_plan;
  row.classic_plan_s = std::numeric_limits<double>::infinity();
  row.classic_lower_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    t = tick();
    auto built = reference::build_multi_car_plan(
        placement, code, balanced.solutions, kChunk, mf.replacement);
    row.classic_plan_s = std::min(row.classic_plan_s, secs(t, tick()));
    classic_plan.emplace(std::move(built));
    t = tick();
    const auto classic_arena =
        recovery::PlanArena::build(*classic_plan, kChunk);
    row.classic_lower_s = std::min(row.classic_lower_s, secs(t, tick()));
  }

  // Template-cached path: signatures planned once, every stripe
  // instantiated by id remapping straight into the columns.  The second
  // build runs entirely on cache hits, exactly like a coordinator batch
  // after the first.
  recovery::PlanTemplateCache cache;
  std::optional<recovery::PlanArena> arena_opt;
  row.arena_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    t = tick();
    auto built = recovery::build_multi_car_arena(
        placement, code, balanced.solutions, kChunk, kChunk, mf.replacement,
        cache);
    row.arena_s = std::min(row.arena_s, secs(t, tick()));
    arena_opt.emplace(std::move(built));
  }
  const recovery::PlanArena& arena = *arena_opt;
  row.template_cache_misses = cache.stats().misses;

  const auto outputs = arena.outputs();
  std::vector<cluster::StripeId> sampled;
  for (const auto& out : outputs) {
    if (sampled.size() >= row.sample) break;
    if (std::find(sampled.begin(), sampled.end(), out.stripe) ==
        sampled.end()) {
      sampled.push_back(out.stripe);
    }
  }
  const auto originals = cluster.populate_sampled(placement, code, kChunk,
                                                  kSeed, sampled);
  for (const auto node : mf.failed_nodes) cluster.erase_node(node);

  emul::ArenaExecOptions options;
  options.shards = row.shards;
  options.metadata_only = true;
  options.sampled_stripes = sampled;

  t = tick();
  const auto report = cluster.execute_arena(arena, options);
  row.replay_s = secs(t, tick());
  row.end_to_end_s = row.scan_s + row.solve_s + row.arena_s + row.replay_s;

  row.affected_stripes = censuses.size();
  row.plan_steps = static_cast<std::size_t>(arena.num_base_steps());
  row.makespan_s = report.wall_s;
  row.cross_rack_bytes = report.cross_rack_bytes;
  for (const auto& out : outputs) {
    const auto it = originals.find(out.stripe);
    if (it == originals.end()) continue;
    ++row.expected_outputs;
    const auto* rec =
        cluster.find_chunk(mf.replacement, out.stripe, out.chunk_index);
    row.verified_outputs +=
        rec != nullptr && *rec == it->second[out.chunk_index];
  }
  return row;
}

std::vector<ScaleSweepRow> measure_scale_sweep() {
  std::vector<ScaleSweepRow> rows;
  ScaleSweepRow a;
  a.stripes = 10000;
  a.num_racks = 20;
  a.rack_size = 20;
  a.failure = "single-node";
  a.shards = 4;
  rows.push_back(measure_scale_point(a));
  ScaleSweepRow b = a;
  b.failure = "full-rack";
  rows.push_back(measure_scale_point(b));
  ScaleSweepRow c;
  c.stripes = 100000;
  c.num_racks = 50;
  c.rack_size = 50;
  c.failure = "full-rack";
  c.shards = 8;
  rows.push_back(measure_scale_point(c));
  // The headline row: a 10k-node cluster losing a whole rack across one
  // million stripes, metadata-only — single-digit host seconds end to end.
  ScaleSweepRow d;
  d.stripes = 1000000;
  d.num_racks = 100;
  d.rack_size = 100;
  d.failure = "full-rack";
  d.shards = 8;
  rows.push_back(measure_scale_point(d));
  return rows;
}

// ---------------------------------------------------------------------------
// Rebuild control plane: the canned rolling-two-rack scenario (two failures,
// the second landing mid-rebuild) swept over strategy x dispatch concurrency.
// Everything runs on the virtual clock, so makespan and the exposure-time
// metrics are bit-deterministic; CI checks them structurally and
// directionally (tools/bench_schema_diff.py).

struct RebuildRow {
  // Sweep coordinates.
  std::string scenario;
  std::string strategy;      // "car" | "rr"
  std::size_t concurrency = 0;
  std::size_t batch_stripes = 0;
  // Measured (deterministic on the virtual clock).
  std::size_t scans = 0;
  std::size_t batches_dispatched = 0;
  std::size_t batches_cancelled = 0;
  std::size_t stripes_requeued = 0;
  double makespan_s = 0.0;
  double max_exposure_s = 0.0;
  double total_exposure_s = 0.0;
  double total_at_risk_s = 0.0;
  std::size_t chunks_recovered = 0;
  bool bit_exact = false;
};

std::vector<RebuildRow> measure_rebuild() {
  std::vector<RebuildRow> rows;
  for (const char* strategy : {"car", "rr"}) {
    for (const std::size_t concurrency :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      auto scenario = rebuild::canned_rebuild_scenario("rolling-two-rack");
      scenario.strategy = recovery::parse_strategy(strategy);
      scenario.rebuild_concurrency = concurrency;
      const auto outcome = rebuild::run_rebuild_scenario(scenario);
      const auto& metrics = outcome.result.metrics;
      RebuildRow row;
      row.scenario = scenario.name;
      row.strategy = strategy;
      row.concurrency = concurrency;
      row.batch_stripes = scenario.rebuild_batch_stripes;
      row.scans = metrics.scans;
      row.batches_dispatched = metrics.batches_dispatched;
      row.batches_cancelled = metrics.batches_cancelled;
      row.stripes_requeued = metrics.stripes_requeued;
      row.makespan_s = metrics.makespan_s;
      row.max_exposure_s = metrics.max_exposure_s;
      row.total_exposure_s = metrics.total_exposure_s;
      row.total_at_risk_s = metrics.total_at_risk_s;
      row.chunks_recovered = outcome.result.recovered.size();
      row.bit_exact = outcome.bit_exact;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Planning-path benchmarks (paper §IV-D).

void BM_BalanceGreedy_Stripes(benchmark::State& state) {
  // Runtime should scale ~linearly with s (stripes).
  const auto stripes = static_cast<std::size_t>(state.range(0));
  const auto s = make_scenario(cluster::cfs3(), stripes, 17);
  for (auto _ : state) {
    auto result = recovery::balance_multi(s.placement, s.censuses, 50);
    benchmark::DoNotOptimize(result.solutions.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(stripes));
}
BENCHMARK(BM_BalanceGreedy_Stripes)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Complexity(benchmark::oN);

void BM_BalanceGreedy_Iterations(benchmark::State& state) {
  // Runtime should scale ~linearly with e (iterations), until convergence.
  const auto iterations = static_cast<std::size_t>(state.range(0));
  const auto s = make_scenario(cluster::cfs3(), 400, 23);
  for (auto _ : state) {
    auto result =
        recovery::balance_multi(s.placement, s.censuses, iterations);
    benchmark::DoNotOptimize(result.solutions.data());
  }
}
BENCHMARK(BM_BalanceGreedy_Iterations)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_EnumerateMinimalSolutions(benchmark::State& state) {
  const auto s = make_scenario(cluster::cfs3(), 100, 29);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& census = s.censuses[i % s.censuses.size()];
    auto sets = recovery::enumerate_rack_sets(
        census.k, census.replacement_rack, census.surviving.ranked());
    benchmark::DoNotOptimize(sets.data());
    ++i;
  }
}
BENCHMARK(BM_EnumerateMinimalSolutions);

void BM_BuildCarPlan(benchmark::State& state) {
  const auto s = make_scenario(cluster::cfs3(), 100, 31);
  const rs::Code code(10, 4);
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  for (auto _ : state) {
    auto plan =
        recovery::build_multi_car_plan(s.placement, code, balanced.solutions,
                                       1 << 22, s.failure.failed_node);
    benchmark::DoNotOptimize(plan.steps.data());
  }
}
BENCHMARK(BM_BuildCarPlan);

void BM_LowerCarPlanToArena(benchmark::State& state) {
  // Lowering into the arena the executors run stores per-base-step columns
  // only (the slice dimension is index arithmetic); it must stay negligible
  // next to the execution it pipelines.
  const auto s = make_scenario(cluster::cfs3(), 100, 31);
  const rs::Code code(10, 4);
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, code, balanced.solutions, 1 << 22, s.failure.failed_node);
  for (auto _ : state) {
    auto arena = recovery::PlanArena::build(plan, 64 * util::kKiB);
    benchmark::DoNotOptimize(arena.num_sliced_steps());
  }
}
BENCHMARK(BM_LowerCarPlanToArena);

void BM_SimulateCarPlan(benchmark::State& state) {
  const auto s = make_scenario(cluster::cfs3(), 100, 37);
  const rs::Code code(10, 4);
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, code, balanced.solutions, 1 << 22, s.failure.failed_node);
  const simnet::NetConfig net;
  for (auto _ : state) {
    auto result = simnet::simulate_plan(s.placement.topology(), plan, net);
    benchmark::DoNotOptimize(result.makespan_s);
  }
}
BENCHMARK(BM_SimulateCarPlan);

void BM_EmulateCarPlan_VirtualClock(benchmark::State& state) {
  // Full emulated recovery — real bytes through the link reservations, real
  // GF(2^8) decoding — under the virtual clock: no step sleeps, so even a
  // 1024-stripe plan (tens of thousands of steps) executes in
  // host-milliseconds on the bounded worker pool, deterministically.
  const auto stripes = static_cast<std::size_t>(state.range(0));
  const auto s = make_scenario(cluster::cfs3(), stripes, 47);
  const rs::Code code(10, 4);
  const auto balanced = recovery::balance_multi(s.placement, s.censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      s.placement, code, balanced.solutions, 4096, s.failure.failed_node);

  emul::EmulConfig cfg;
  emul::Cluster cluster(s.placement.topology(), cfg);
  util::Rng data_rng(48);
  cluster.populate(s.placement, code, 4096, data_rng);
  cluster.erase_node(s.failure.failed_node);
  for (auto _ : state) {
    auto report = cluster.execute(plan);
    benchmark::DoNotOptimize(report.wall_s);
  }
  state.SetComplexityN(static_cast<std::int64_t>(stripes));
}
BENCHMARK(BM_EmulateCarPlan_VirtualClock)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity(benchmark::oN);

void BM_SimulateRrPlan(benchmark::State& state) {
  auto s = make_scenario(cluster::cfs3(), 100, 41);
  const rs::Code code(10, 4);
  util::Rng rng(43);
  const auto rr = recovery::plan_multi_rr(s.placement, s.censuses, rng);
  const auto plan = recovery::build_multi_rr_plan(
      s.placement, code, rr, 1 << 22, s.failure.failed_node);
  const simnet::NetConfig net;
  for (auto _ : state) {
    auto result = simnet::simulate_plan(s.placement.topology(), plan, net);
    benchmark::DoNotOptimize(result.makespan_s);
  }
}
BENCHMARK(BM_SimulateRrPlan);

// ---------------------------------------------------------------------------
// Host-latency benchmarks for the sliced execution path itself: the same
// fig9 plan, unsliced vs. sliced, real bytes + pooled staging.  These feed
// the host_results section of the JSON baseline (timings are host-specific;
// CI diffs structure only).

void register_fig9_exec_benches() {
  for (const std::uint64_t slice : {std::uint64_t{0}, kFig9Slice}) {
    const std::string name = slice == 0
                                 ? std::string("fig9_execute/unsliced")
                                 : "fig9_execute/sliced/" +
                                       std::to_string(slice / util::kKiB) +
                                       "KiB";
    meta_registry()[name] = {"execute", kFig9Chunk, slice};
    benchmark::RegisterBenchmark(name.c_str(), [slice](
                                                   benchmark::State& state) {
      const auto cfg = cluster::cfs2();
      const auto s = make_scenario(cfg, kFig9Stripes, 0xF19 + 1);
      const rs::Code code(cfg.k, cfg.m);
      const auto balanced =
          recovery::balance_multi(s.placement, s.censuses, 50);
      const auto plan = recovery::schedule_windowed(
          recovery::build_multi_car_plan(s.placement, code, balanced.solutions,
                                         kFig9Chunk, s.failure.failed_node),
          kFig9Window);
      emul::Cluster cluster(s.placement.topology(), fig9_emul(1.0));
      util::Rng data_rng(0xDA7A + 1);
      cluster.populate(s.placement, code, kFig9Chunk, data_rng);
      cluster.erase_node(s.failure.failed_node);
      double makespan = 0.0;
      if (slice == 0) {
        for (auto _ : state) {
          makespan = cluster.execute(plan).wall_s;
          benchmark::DoNotOptimize(makespan);
        }
      } else {
        const auto sliced = recovery::PlanArena::build(plan, slice);
        for (auto _ : state) {
          makespan = cluster.execute_arena(sliced).wall_s;
          benchmark::DoNotOptimize(makespan);
        }
      }
      state.counters["virtual_makespan_s"] = makespan;
    });
  }
}

// ---------------------------------------------------------------------------
// JSON baseline writer (schema car-recovery-bench/1).

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void write_json(const std::string& path, const std::vector<Fig9Point>& points,
                const std::vector<ScaleSweepRow>& sweep,
                const std::vector<RebuildRow>& rebuild_rows,
                const std::vector<CollectedRun>& runs) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "micro_recovery: cannot open --json path %s\n",
                 path.c_str());
    std::exit(1);
  }
  os << std::setprecision(10);
  os << "{\n";
  os << "  \"schema\": \"car-recovery-bench/1\",\n";
  os << "  \"fabric\": {\"node_bps\": 125e6, \"oversubscription\": 5.0, "
        "\"virtual_gf_bps\": 1.5e9},\n";
  os << "  \"workload\": {\"chunk_bytes\": " << kFig9Chunk
     << ", \"slice_bytes\": " << kFig9Slice << ", \"window\": " << kFig9Window
     << ", \"stripes\": " << kFig9Stripes << "},\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Fig9Point& p = points[i];
    os << "    {\"config\": \"" << json_escape(p.config) << "\", \"k\": "
       << p.k << ", \"m\": " << p.m << ", \"racks\": " << p.racks
       << ", \"core_scale\": " << p.core_scale
       << ", \"unsliced_makespan_s\": " << p.unsliced_makespan_s
       << ", \"sliced_makespan_s\": " << p.sliced_makespan_s
       << ", \"speedup\": " << p.speedup() << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"scale_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ScaleSweepRow& r = sweep[i];
    os << "    {\"stripes\": " << r.stripes << ", \"nodes\": "
       << r.num_racks * r.rack_size << ", \"failure\": \""
       << json_escape(r.failure) << "\", \"racks\": " << r.num_racks
       << ", \"shards\": " << r.shards << ", \"metadata_only\": "
       << (r.metadata_only ? "true" : "false") << ", \"sample\": " << r.sample
       << ", \"affected_stripes\": " << r.affected_stripes
       << ", \"plan_steps\": " << r.plan_steps << ", \"makespan_s\": "
       << r.makespan_s << ", \"cross_rack_bytes\": " << r.cross_rack_bytes
       << ", \"verified_outputs\": " << r.verified_outputs
       << ", \"expected_outputs\": " << r.expected_outputs
       << ", \"scan_s\": " << r.scan_s << ", \"solve_s\": " << r.solve_s
       << ", \"classic_plan_s\": " << r.classic_plan_s
       << ", \"classic_lower_s\": " << r.classic_lower_s
       << ", \"arena_s\": " << r.arena_s << ", \"replay_s\": " << r.replay_s
       << ", \"end_to_end_s\": " << r.end_to_end_s
       << ", \"plan_speedup\": " << r.plan_speedup()
       << ", \"template_cache_misses\": " << r.template_cache_misses << "}"
       << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"rebuild\": [\n";
  for (std::size_t i = 0; i < rebuild_rows.size(); ++i) {
    const RebuildRow& r = rebuild_rows[i];
    os << "    {\"scenario\": \"" << json_escape(r.scenario)
       << "\", \"strategy\": \"" << json_escape(r.strategy)
       << "\", \"concurrency\": " << r.concurrency
       << ", \"batch_stripes\": " << r.batch_stripes
       << ", \"scans\": " << r.scans
       << ", \"batches_dispatched\": " << r.batches_dispatched
       << ", \"batches_cancelled\": " << r.batches_cancelled
       << ", \"stripes_requeued\": " << r.stripes_requeued
       << ", \"makespan_s\": " << r.makespan_s
       << ", \"max_exposure_s\": " << r.max_exposure_s
       << ", \"total_exposure_s\": " << r.total_exposure_s
       << ", \"total_at_risk_s\": " << r.total_at_risk_s
       << ", \"chunks_recovered\": " << r.chunks_recovered
       << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
       << (i + 1 < rebuild_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"host_results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CollectedRun& run = runs[i];
    os << "    {\"name\": \"" << json_escape(run.name) << "\", \"op\": \""
       << json_escape(run.meta.op) << "\", \"chunk_bytes\": "
       << run.meta.chunk_bytes << ", \"slice_bytes\": " << run.meta.slice_bytes
       << ", \"iterations\": " << run.iterations << ", \"real_time_s\": "
       << run.real_seconds << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

void print_fig9_table(const std::vector<Fig9Point>& points) {
  std::printf("\n== fig9 fabric: sliced (%llu KiB) vs unsliced makespan, "
              "window %zu ==\n",
              static_cast<unsigned long long>(kFig9Slice / util::kKiB),
              kFig9Window);
  for (const Fig9Point& p : points) {
    std::printf("  %-5s k=%-2zu m=%zu core=%.0f%%  unsliced %8.3f s  "
                "sliced %8.3f s  speedup %.2fx\n",
                p.config.c_str(), p.k, p.m, 100.0 * p.core_scale,
                p.unsliced_makespan_s, p.sliced_makespan_s, p.speedup());
  }
}

void print_scale_table(const std::vector<ScaleSweepRow>& sweep) {
  std::printf("\n== scale sweep: metadata-only sharded arena execution ==\n");
  for (const ScaleSweepRow& r : sweep) {
    std::printf("  %7zu stripes  %4zu nodes  %-11s  shards %zu  affected "
                "%6zu  steps %7zu  makespan %9.3f s  end-to-end %6.3f s  "
                "verified %zu/%zu\n",
                r.stripes, r.num_racks * r.rack_size, r.failure.c_str(),
                r.shards, r.affected_stripes, r.plan_steps, r.makespan_s,
                r.end_to_end_s, r.verified_outputs, r.expected_outputs);
  }
}

void print_rebuild_table(const std::vector<RebuildRow>& rows) {
  std::printf("\n== rebuild control plane: rolling-two-rack, "
              "strategy x concurrency ==\n");
  for (const RebuildRow& r : rows) {
    std::printf("  %-3s conc %zu  batches %2zu (%zu cancelled, %2zu "
                "re-queued)  makespan %8.5f s  max-exposure %8.5f s  "
                "at-risk %8.5f s  %zu chunks %s\n",
                r.strategy.c_str(), r.concurrency, r.batches_dispatched,
                r.batches_cancelled, r.stripes_requeued, r.makespan_s,
                r.max_exposure_s, r.total_at_risk_s, r.chunks_recovered,
                r.bit_exact ? "bit-exact" : "MISMATCH");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --json <path> / --json=<path> before google-benchmark parses the
  // rest of the command line.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());

  register_fig9_exec_benches();

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    const auto points = measure_fig9_points();
    print_fig9_table(points);
    const auto sweep = measure_scale_sweep();
    print_scale_table(sweep);
    const auto rebuild_rows = measure_rebuild();
    print_rebuild_table(rebuild_rows);
    write_json(json_path, points, sweep, rebuild_rows, reporter.collected());
  }
  return 0;
}
