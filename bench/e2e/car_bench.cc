// car_bench — one recovery of one benchmark workload per process, timed from
// outside the library.
//
//   car_bench --workload NAME --seed N [--trace] [--smoke]
//   car_bench --workload NAME --seed N --micro [--smoke]
//
// bench/e2e/run.py starts this program once per repetition ("rep"), so every
// rep runs on a fresh heap, emul::Cluster and PlanTemplateCache, as a carctl
// run does; reps that share a process inherit each other's heap and see
// page-fault counts and peak RSS that depend on how many reps ran before.
//
// The one-shot workloads drive the pipeline `carctl emulate --stream`
// ships, through public calls only:
//
//   build_multi_censuses -> balance_multi | plan_multi_rr
//     -> reserve_multi_*_arena, then stream_multi_*_arena on a producer
//        thread -> Cluster::execute_arena_streaming
//
// and the rolling workload calls rebuild::RebuildCoordinator::run.  Each rep
// checks its own output: every lost chunk has a recovery output, every
// recovered chunk that carries real bytes equals its seeded original, and
// (one-shot) the emulator's cross-rack byte count equals the planner's
// claim.
//
// --trace records spans (name, start, end, parent, thread) around each call
// into a layer, keeps them in memory, and adds layer timings to the output;
// without it no timestamp is taken inside the recovery.  --micro runs the
// layer microbenchmarks on the workload's shape instead of a recovery.
// Output is one JSON document on stdout, which run.py turns into metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/calendar_queue.h"
#include "emul/cluster.h"
#include "emul/link.h"
#include "gf/kernels.h"
#include "gf/region.h"
#include "rebuild/coordinator.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "rs/code.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/spsc_queue.h"

#ifndef CAR_BENCH_BUILD_TYPE
#define CAR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CAR_BENCH_COMPILER
#define CAR_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace car;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads.  Inputs are a pure function of (workload, seed).

enum class Failure : std::uint8_t {
  kRandomRack,  // carctl --fail-rack: a seeded random node and its rack
  kMedianNode,  // the node whose chunk count is the median
  kRolling,     // two nodes in two racks, the second mid-rebuild
};

struct Workload {
  std::vector<std::size_t> racks;  // nodes per rack
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t stripes = 0;
  std::uint64_t chunk = 0;
  std::uint64_t slice = 0;  // == chunk: unsliced
  bool car = true;
  Failure failure = Failure::kRandomRack;
  /// Stripes that carry real bytes: 0 = every affected stripe, otherwise
  /// `sample` affected stripes (the rest are metadata-only).
  std::size_t sample = 0;
  emul::EmulConfig fabric;
  /// kRolling: virtual time of the second failure.
  double second_failure_s = 0.0;
  /// --micro also replays the RR baseline for the paper-fidelity line.
  bool fidelity = false;
};

constexpr std::size_t kShards = 2;  // census and payload threads
constexpr std::size_t kBalanceIterations = 50;  // Algorithm 2, paper default
constexpr cluster::NodeId kRollingFirstNode = 1;    // rack 0
constexpr cluster::NodeId kRollingSecondNode = 25;  // rack 1

std::optional<Workload> make_workload(std::string_view name, bool smoke) {
  Workload w;
  w.fabric.clock_mode = emul::ClockMode::kVirtual;
  if (name == "rack_1m_car" || name == "rack_1m_rr") {
    // carctl emulate --num-racks 100 --rack-size 100 --k 6 --m 3
    //   --stripes 1000000 --chunk-mib 1 --metadata-only --fail-rack
    //   --shards 2 --stream --iterations 50 [--strategy rr]: the same
    //   inputs, seeds, sample, and fabric (400 MB/s nodes, 5x core).
    w.racks.assign(100, 100);
    w.k = 6;
    w.m = 3;
    w.stripes = 1'000'000;
    w.chunk = util::kMiB;
    w.slice = w.chunk;
    w.car = name == "rack_1m_car";
    w.failure = Failure::kRandomRack;
    w.sample = 4;
    w.fabric.node_bps = 400e6;
    w.fabric.oversubscription = 5.0;
  } else if (name == "paper_bytes_car") {
    // The bench/fig9 fabric: 1 GbE nodes, 5x-oversubscribed core, GF
    // compute charged at the paper-era 1.5 GB/s.
    w.racks.assign(5, 20);
    w.k = 10;
    w.m = 4;
    w.stripes = 3000;
    w.chunk = 64 * util::kKiB;
    w.slice = 16 * util::kKiB;
    w.car = true;
    // A random node's chunk count varies by several percent between seeds
    // at this size; failing the median-loaded node keeps the amount of work
    // steady across seeds.
    w.failure = Failure::kMedianNode;
    w.sample = 0;
    w.fabric.node_bps = 125e6;
    w.fabric.oversubscription = 5.0;
    w.fabric.virtual_gf_bps = 1.5e9;
    w.fidelity = true;
  } else if (name == "rolling_rebuild") {
    w.racks.assign(20, 20);
    w.k = 6;
    w.m = 3;
    w.stripes = 100'000;
    w.chunk = util::kMiB;
    w.slice = 256 * util::kKiB;
    w.car = true;
    w.failure = Failure::kRolling;
    w.sample = 4;
    w.fabric.node_bps = 400e6;
    w.fabric.oversubscription = 5.0;
    // About a third of the way into the first failure's rebuild, so
    // batches are in flight and get cancelled, salvaged and re-planned.
    w.second_failure_s = 10.0;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    // 1/100 of the stripes; the failure schedule shrinks with the rebuild.
    w.stripes /= 100;
    w.second_failure_s /= 100.0;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer: the program's only output format.

class Json {
 public:
  Json& open(const char* key = nullptr) { return begin(key, '{'); }
  Json& open_array(const char* key = nullptr) { return begin(key, '['); }
  Json& close() {
    out_ += stack_.back() == '{' ? '}' : ']';
    stack_.pop_back();
    first_ = false;
    return *this;
  }
  Json& num(const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, std::isfinite(value) ? "%.17g" : "null",
                  value);
    return raw(key, buf);
  }
  Json& count(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& boolean(const char* key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& str(const char* key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  Json& begin(const char* key, char bracket) {
    prefix(key);
    out_ += bracket;
    stack_.push_back(bracket);
    first_ = true;
    return *this;
  }
  Json& raw(const char* key, std::string_view value) {
    prefix(key);
    out_ += value;
    first_ = false;
    return *this;
  }
  void prefix(const char* key) {
    if (!first_) out_ += ',';
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }

  std::string out_;
  std::vector<char> stack_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory and written once at exit.  A disabled
// tracer takes no timestamps, so an untraced rep runs the bare pipeline.

struct Span {
  const char* name = "";
  double start_s = 0.0;  // since process start
  double end_s = 0.0;
  int parent = -1;  // index into the span list, -1 = none
  int tid = 0;      // 0 = main thread, 1 = plan producer
};

class Tracer {
 public:
  Tracer(Clock::time_point epoch, bool enabled)
      : epoch_(epoch), enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Clock::time_point now() const {
    return enabled_ ? Clock::now() : Clock::time_point{};
  }

  /// Record [start, end) under `parent`; returns the span id (-1 when off).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, int tid = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, seconds_between(epoch_, start),
                      seconds_between(epoch_, end), parent, tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write(Json& json) const {
    json.open_array("spans");
    for (const Span& span : spans_) {
      json.open()
          .str("name", span.name)
          .num("start_s", span.start_s)
          .num("end_s", span.end_s)
          .num("parent", span.parent)
          .count("tid", static_cast<std::uint64_t>(span.tid))
          .close();
    }
    json.close();
  }

 private:
  Clock::time_point epoch_;
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One rep's result.

struct RepResult {
  bool threw = false;
  std::string error;
  // Host seconds.
  double placement_s = 0.0;  // placement + failure choice
  double populate_s = 0.0;   // cluster build + populate + erase
  double recover_s = 0.0;
  double verify_s = 0.0;
  // Correctness.
  std::uint64_t lost_chunks = 0;
  std::uint64_t rebuilt_chunks = 0;  // lost chunks with a recovery output
  std::uint64_t checked_chunks = 0;  // recovered chunks byte-compared
  std::uint64_t matching_chunks = 0;
  bool traffic_claim_ok = true;
  // Modelled on the virtual clock: deterministic for a seed.
  double makespan_s = 0.0;
  std::uint64_t cross_rack_bytes = 0;
  double lambda = 0.0;
  double max_exposure_s = 0.0;
  // Exact layer counts, and (traced reps) layer timings.
  std::vector<std::pair<const char*, std::uint64_t>> counts;
  std::vector<std::pair<const char*, double>> layers;
};

/// Max / mean of per-rack cross-rack bytes over the racks that send repair
/// traffic (every rack but the replacement's).
double lambda_of(const std::vector<std::uint64_t>& per_rack,
                 cluster::RackId replacement_rack) {
  double total = 0.0;
  double peak = 0.0;
  std::size_t racks = 0;
  for (std::size_t r = 0; r < per_rack.size(); ++r) {
    if (r == replacement_rack) continue;
    const auto bytes = static_cast<double>(per_rack[r]);
    total += bytes;
    peak = std::max(peak, bytes);
    ++racks;
  }
  return total > 0.0 ? peak / (total / static_cast<double>(racks)) : 0.0;
}

std::uint64_t chunk_key(cluster::StripeId stripe, std::size_t chunk_index) {
  return (static_cast<std::uint64_t>(stripe) << 8) |
         static_cast<std::uint64_t>(chunk_index);
}

cluster::NodeId median_load_node(const cluster::Placement& placement) {
  const auto occupancy = placement.node_occupancy();
  std::vector<cluster::NodeId> order(occupancy.size());
  for (cluster::NodeId n = 0; n < order.size(); ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return occupancy[a] != occupancy[b] ? occupancy[a] < occupancy[b] : a < b;
  });
  return order[order.size() / 2];
}

/// The seeded inputs of one rep: placement and failure choice.
struct Inputs {
  cluster::Placement placement;
  std::vector<cluster::NodeId> failed;      // first = replacement
  std::vector<cluster::StripeId> affected;  // ascending
  std::vector<cluster::StripeId> real;      // stripes populated with bytes
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  util::Rng place_rng(seed);
  Inputs in{cluster::Placement::random(cluster::Topology(w.racks), w.k, w.m,
                                       w.stripes, place_rng),
            {}, {}, {}};
  const auto& topology = in.placement.topology();
  switch (w.failure) {
    case Failure::kRandomRack: {
      util::Rng fail_rng(seed + 1);
      const auto first =
          cluster::inject_random_failure(in.placement, fail_rng).failed_node;
      in.failed.push_back(first);
      for (const auto node : topology.nodes_in_rack(topology.rack_of(first))) {
        if (node != first) in.failed.push_back(node);
      }
      break;
    }
    case Failure::kMedianNode:
      in.failed.push_back(median_load_node(in.placement));
      break;
    case Failure::kRolling:
      in.failed = {kRollingFirstNode, kRollingSecondNode};
      break;
  }
  // Affected stripes in id order — the order the census and the solvers
  // emit them in, so "the first `sample`" is carctl's selection.
  std::vector<char> dead(topology.num_nodes(), 0);
  for (const auto node : in.failed) dead[node] = 1;
  for (cluster::StripeId s = 0; s < w.stripes; ++s) {
    const auto hosts = in.placement.stripe(s);
    if (std::any_of(hosts.begin(), hosts.end(),
                    [&](cluster::NodeId n) { return dead[n] != 0; })) {
      in.affected.push_back(s);
    }
  }
  // The rolling workload samples stripes that lose a chunk only to the
  // second failure: they are planned after it and never cancelled, so the
  // real bytes live at once, and with them the peak RSS, do not depend on
  // which batches the second failure happens to cancel.
  for (const auto s : in.affected) {
    if (w.sample != 0 && in.real.size() == w.sample) break;
    const auto hosts = in.placement.stripe(s);
    if (w.failure == Failure::kRolling &&
        std::find(hosts.begin(), hosts.end(), in.failed[0]) != hosts.end()) {
      continue;
    }
    in.real.push_back(s);
  }
  return in;
}

using Originals =
    std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>>;

/// Count the lost chunks that have a recovery output, and byte-compare
/// every recovered chunk that carries real bytes.
void check_outputs(const emul::Cluster& cluster, cluster::NodeId replacement,
                   const Originals& originals, std::vector<std::uint64_t> lost,
                   const std::vector<cluster::ChunkRef>& outputs,
                   RepResult& rep) {
  std::sort(lost.begin(), lost.end());
  rep.lost_chunks = lost.size();
  std::vector<std::uint64_t> rebuilt;
  rebuilt.reserve(outputs.size());
  for (const auto& out : outputs) {
    rebuilt.push_back(chunk_key(out.stripe, out.chunk_index));
  }
  std::sort(rebuilt.begin(), rebuilt.end());
  rebuilt.erase(std::unique(rebuilt.begin(), rebuilt.end()), rebuilt.end());
  for (const auto key : rebuilt) {
    rep.rebuilt_chunks +=
        std::binary_search(lost.begin(), lost.end(), key) ? 1 : 0;
  }
  for (const auto& out : outputs) {
    const auto it = originals.find(out.stripe);
    if (it == originals.end()) continue;
    ++rep.checked_chunks;
    const rs::Chunk* got =
        cluster.find_chunk(replacement, out.stripe, out.chunk_index);
    rep.matching_chunks +=
        got != nullptr && *got == it->second[out.chunk_index] ? 1 : 0;
  }
}

struct Setup {
  Inputs in;
  std::unique_ptr<emul::Cluster> cluster;
  Originals originals;
};

/// Placement, failure choice, cluster build and populate: the setup layer.
/// `erase` wipes the failed nodes (the rebuild coordinator does that
/// itself).
Setup set_up(const Workload& w, std::uint64_t seed, const rs::Code& code,
             bool erase, Tracer& tracer, RepResult& rep) {
  const auto s0 = Clock::now();
  Setup s{make_inputs(w, seed), nullptr, {}};
  const auto s1 = Clock::now();
  s.cluster =
      std::make_unique<emul::Cluster>(s.in.placement.topology(), w.fabric);
  s.originals = s.cluster->populate_sampled(s.in.placement, code, w.chunk,
                                            seed, s.in.real);
  if (erase) {
    for (const auto node : s.in.failed) s.cluster->erase_node(node);
  }
  const auto s2 = Clock::now();
  const int root = tracer.add("setup", s0, s2);
  tracer.add("setup.placement", s0, s1, root);
  tracer.add("setup.populate", s1, s2, root);
  rep.placement_s = seconds_between(s0, s1);
  rep.populate_s = seconds_between(s1, s2);
  return s;
}

/// Barrier replays of a finished arena on fresh clusters, once moving the
/// workload's real bytes and once metadata-only; their difference estimates
/// the payload pass (byte movement and GF kernels).  Also returns the
/// payload bytes the real replay moves and combines.
std::tuple<double, double, std::uint64_t> payload_split(
    const Workload& w, std::uint64_t seed, const rs::Code& code,
    const Inputs& in, const recovery::PlanArena& arena,
    const emul::ArenaExecOptions& options) {
  auto replay = [&](bool payload) {
    emul::Cluster cluster(in.placement.topology(), w.fabric);
    emul::ArenaExecOptions opts = options;
    if (payload) {
      (void)cluster.populate_sampled(in.placement, code, w.chunk, seed,
                                     in.real);
    } else {
      opts.metadata_only = true;
      opts.sampled_stripes.clear();
    }
    for (const auto node : in.failed) cluster.erase_node(node);
    const auto t0 = Clock::now();
    (void)cluster.execute_arena(arena, opts);
    return seconds_between(t0, Clock::now());
  };
  const double real_s = replay(true);
  const double meta_s = replay(false);
  const std::unordered_set<cluster::StripeId> real(in.real.begin(),
                                                   in.real.end());
  std::uint64_t bytes = 0;
  for (std::uint64_t base = 0; base < arena.num_base_steps(); ++base) {
    if (!real.contains(arena.stripe(base))) continue;
    if (arena.kind(base) == recovery::StepKind::kTransfer) {
      bytes += arena.src(base) != arena.dst(base) ? arena.chunk_size() : 0;
    } else {
      bytes += arena.chunk_size() * arena.num_inputs(base);
    }
  }
  return {real_s, meta_s, bytes};
}

// ---------------------------------------------------------------------------
// One-shot recovery: census -> solve -> streamed lowering + replay.

RepResult one_shot(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  RepResult rep;
  const rs::Code code(w.k, w.m);
  Setup s = set_up(w, seed, code, /*erase=*/true, tracer, rep);
  const cluster::Placement& placement = s.in.placement;
  const auto mf = recovery::make_multi_failure(placement, s.in.failed);

  emul::ArenaExecOptions options;
  options.shards = kShards;
  options.replay_shards = 1;
  options.metadata_only = w.sample != 0;
  if (options.metadata_only) options.sampled_stripes = s.in.real;

  // ---- the timed recovery ----
  const auto r0 = Clock::now();
  const auto c0 = tracer.now();
  const auto censuses = recovery::build_multi_censuses(placement, mf, kShards);
  const auto c1 = tracer.now();
  std::vector<recovery::MultiStripeSolution> car;
  std::vector<recovery::MultiRrSolution> rr;
  std::size_t substitutions = 0;
  if (w.car) {
    auto balanced =
        recovery::balance_multi(placement, censuses, kBalanceIterations);
    substitutions = balanced.substitutions;
    car = std::move(balanced.solutions);
  } else {
    util::Rng rr_rng(seed + 2);
    rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
  }
  const auto c2 = tracer.now();
  recovery::PlanTemplateCache cache;
  recovery::ArenaStreamBuild build =
      w.car ? recovery::reserve_multi_car_arena(placement, car, w.chunk,
                                                w.slice, mf.replacement, cache)
            : recovery::reserve_multi_rr_arena(placement, rr, w.chunk, w.slice,
                                               mf.replacement, cache);
  const auto c3 = tracer.now();

  emul::ArenaStreamFeed feed;
  std::exception_ptr produce_error;
  std::uint64_t publishes = 0;
  Clock::time_point p_start{};
  Clock::time_point p_first{};
  Clock::time_point p_end{};
  std::function<void(std::uint64_t)> publish;
  if (tracer.enabled()) {
    publish = [&](std::uint64_t rows) {
      if (publishes++ == 0) p_first = Clock::now();
      feed.publish(rows);
    };
  } else {
    publish = [&feed](std::uint64_t rows) { feed.publish(rows); };
  }
  std::thread producer([&] {
    p_start = tracer.now();
    try {
      if (w.car) {
        recovery::stream_multi_car_arena(build, placement, code, car, cache,
                                         publish);
      } else {
        recovery::stream_multi_rr_arena(build, placement, code, rr, cache,
                                        publish);
      }
    } catch (...) {
      produce_error = std::current_exception();
    }
    // Close even on error so the executor's ingest loop terminates.
    feed.close();
    p_end = tracer.now();
  });
  const auto c4 = tracer.now();
  emul::ExecutionReport report;
  try {
    report = s.cluster->execute_arena_streaming(build.arena, options, feed);
  } catch (...) {
    producer.join();
    if (produce_error) std::rethrow_exception(produce_error);
    throw;
  }
  const auto c5 = tracer.now();
  producer.join();
  if (produce_error) std::rethrow_exception(produce_error);
  const auto r1 = Clock::now();
  rep.recover_s = seconds_between(r0, r1);
  // ---- end of the timed recovery ----

  const int root = tracer.add("recover", r0, r1);
  tracer.add("census", c0, c1, root);
  tracer.add("solve", c1, c2, root);
  tracer.add("lower.reserve", c2, c3, root);
  tracer.add("replay", c4, c5, root);
  tracer.add("lower.append", p_start, p_end, root, 1);

  const auto v0 = Clock::now();
  const recovery::PlanArena& arena = build.arena;
  std::vector<std::uint64_t> lost;
  for (const auto& census : censuses) {
    for (const auto chunk : census.lost_chunks) {
      lost.push_back(chunk_key(census.stripe, chunk));
    }
  }
  std::vector<cluster::ChunkRef> outputs;
  for (const auto& out : arena.outputs()) {
    outputs.push_back({out.stripe, out.chunk_index});
  }
  check_outputs(*s.cluster, mf.replacement, s.originals, std::move(lost),
                outputs, rep);
  const auto claim =
      w.car ? recovery::multi_traffic(car, placement.topology().num_racks(),
                                      mf.replacement_rack)
            : recovery::multi_rr_traffic(placement, rr, mf.replacement_rack);
  rep.traffic_claim_ok = claim.total_bytes(w.chunk) == report.cross_rack_bytes;
  const auto v1 = Clock::now();
  tracer.add("verify", v0, v1);
  rep.verify_s = seconds_between(v0, v1);

  rep.makespan_s = report.wall_s;
  rep.cross_rack_bytes = report.cross_rack_bytes;
  rep.lambda = lambda_of(report.per_rack_cross_bytes, mf.replacement_rack);
  // One-shot: every affected stripe is degraded from t = 0 until its last
  // chunk is rebuilt, and the last rebuild ends the makespan.
  rep.max_exposure_s = report.wall_s;

  std::uint64_t transfers = 0;
  for (std::uint64_t base = 0; base < arena.num_base_steps(); ++base) {
    transfers += arena.kind(base) == recovery::StepKind::kTransfer ? 1 : 0;
  }
  rep.counts = {
      {"census.affected", censuses.size()},
      {"census.stripe_scans", w.stripes},
      {"solve.planned_stripes", censuses.size()},
      {"solve.substitutions", substitutions},
      {"lower.steps", arena.num_base_steps()},
      {"template.hits", cache.stats().hits},
      {"template.misses", cache.stats().misses},
      {"replay.events", arena.num_sliced_steps()},
      {"rebuild.batches", 1},
      {"rebuild.completed", 1},
      {"rebuild.cancelled", 0},
      {"rebuild.requeued", 0},
      {"rebuild.transfer_attempts", transfers},
      {"verify.chunks", rep.checked_chunks},
  };
  if (tracer.enabled()) {
    const double append_s = seconds_between(p_start, p_end);
    const auto [real_s, meta_s, bytes] =
        payload_split(w, seed, code, s.in, arena, options);
    rep.layers = {
        {"census.s", seconds_between(c0, c1)},
        {"solve.s", seconds_between(c1, c2)},
        {"lower.reserve_s", seconds_between(c2, c3)},
        {"lower.append_s", append_s},
        {"lower.first_publish_s",
         publishes > 0 ? seconds_between(p_start, p_first) : append_s},
        {"lower.publishes", static_cast<double>(publishes)},
        {"replay.s", seconds_between(c4, c5)},
        {"replay.tail_s", std::max(0.0, seconds_between(p_end, c5))},
        {"payload.real_replay_s", real_s},
        {"payload.meta_replay_s", meta_s},
        {"payload.bytes", static_cast<double>(bytes)},
    };
  }
  return rep;
}

/// The RR baseline on a CAR workload's inputs, metadata-only and
/// unstreamed: modelled cross-rack bytes and makespan.
std::pair<std::uint64_t, double> rr_baseline(const Workload& w,
                                             std::uint64_t seed) {
  const rs::Code code(w.k, w.m);
  const Inputs in = make_inputs(w, seed);
  const auto mf = recovery::make_multi_failure(in.placement, in.failed);
  const auto censuses =
      recovery::build_multi_censuses(in.placement, mf, kShards);
  util::Rng rr_rng(seed + 2);
  const auto rr = recovery::plan_multi_rr(in.placement, censuses, rr_rng);
  recovery::PlanTemplateCache cache;
  const auto arena = recovery::build_multi_rr_arena(
      in.placement, code, rr, w.chunk, w.slice, mf.replacement, cache);
  emul::Cluster cluster(in.placement.topology(), w.fabric);
  emul::ArenaExecOptions options;
  options.shards = kShards;
  options.metadata_only = true;
  const auto report = cluster.execute_arena(arena, options);
  return {report.cross_rack_bytes, report.wall_s};
}

// ---------------------------------------------------------------------------
// Rolling rebuild through the RebuildCoordinator.

RepResult rolling(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  RepResult rep;
  const rs::Code code(w.k, w.m);
  Setup s = set_up(w, seed, code, /*erase=*/false, tracer, rep);
  const cluster::Placement& placement = s.in.placement;

  rebuild::RebuildOptions options;
  options.strategy = rebuild::Strategy::kCar;
  options.chunk_bytes = w.chunk;
  options.slice_bytes = w.slice;
  options.batch_stripes = 32;
  options.max_inflight = 4;
  options.seed = seed;
  options.scan_shards = kShards;
  // No faults are injected, so a timeout could only fire on queueing delay
  // at the replacement; keep the retry path out of the measurement.
  options.retry.transfer_timeout_s = 3600.0;
  options.data.metadata_only = true;
  options.data.sampled_stripes = s.in.real;
  const std::vector<rebuild::FailureEvent> events = {
      {s.in.failed[0], 0.0}, {s.in.failed[1], w.second_failure_s}};

  // ---- the timed recovery ----
  const auto r0 = Clock::now();
  rebuild::RebuildCoordinator coordinator(*s.cluster, placement, code,
                                          options);
  const rebuild::RebuildResult result = coordinator.run(events);
  const auto r1 = Clock::now();
  rep.recover_s = seconds_between(r0, r1);
  // ---- end of the timed recovery ----
  tracer.add("recover", r0, r1);

  const auto v0 = Clock::now();
  std::vector<std::uint64_t> lost;
  for (const auto node : s.in.failed) {
    for (const auto& ref : placement.chunks_on_node(node)) {
      lost.push_back(chunk_key(ref.stripe, ref.chunk_index));
    }
  }
  std::vector<cluster::ChunkRef> outputs;
  for (const auto& chunk : result.recovered) {
    outputs.push_back({chunk.stripe, chunk.chunk_index});
  }
  check_outputs(*s.cluster, result.replacement, s.originals, std::move(lost),
                outputs, rep);
  const auto v1 = Clock::now();
  tracer.add("verify", v0, v1);
  rep.verify_s = seconds_between(v0, v1);

  const rebuild::RebuildMetrics& m = result.metrics;
  rep.makespan_s = m.makespan_s;
  rep.cross_rack_bytes = result.report.cross_rack_bytes;
  rep.lambda = lambda_of(result.report.per_rack_cross_bytes,
                         placement.topology().rack_of(result.replacement));
  rep.max_exposure_s = m.max_exposure_s;

  std::uint64_t planned = 0;
  std::uint64_t completed = 0;
  for (const auto& batch : result.batches) {
    planned += batch.stripes;
    completed += batch.cancelled ? 0 : 1;
  }
  rep.counts = {
      {"census.affected", s.in.affected.size()},
      // Every epoch scan and every batch's census covers all stripes.
      {"census.stripe_scans", w.stripes * (m.scans + m.batches_dispatched)},
      {"solve.planned_stripes", planned},
      {"solve.substitutions", 0},
      {"lower.steps", 0},
      {"template.hits", m.template_cache_hits},
      {"template.misses", m.template_cache_misses},
      {"replay.events", result.stats.attempts},
      {"rebuild.batches", m.batches_dispatched},
      {"rebuild.completed", completed},
      {"rebuild.cancelled", m.batches_cancelled},
      {"rebuild.requeued", m.stripes_requeued},
      {"rebuild.transfer_attempts", result.stats.attempts},
      {"verify.chunks", rep.checked_chunks},
  };
  if (tracer.enabled()) {
    rep.layers = {
        {"census.s", m.scan_host_s},
        {"solve.s", m.plan_host_s},
        {"replay.s", rep.recover_s - m.scan_host_s - m.plan_host_s},
    };
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Layer microbenchmarks (--micro), each through a public API on the
// workload's own shape.  Every one reports the median of five timed
// batches; `sink` keeps the results observable.

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

constexpr int kMicroBatches = 5;

/// gf::mul_region_acc over one slice: GB/s of source processed.
double micro_gf(std::uint64_t bytes, std::uint64_t seed, std::uint64_t& sink) {
  std::vector<std::uint8_t> src(bytes);
  std::vector<std::uint8_t> dst(bytes, 0);
  util::Rng rng(seed);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t iters =
      std::max<std::uint64_t>(1, (64 * util::kMiB) / bytes);
  std::vector<double> rates;
  for (int b = 0; b < kMicroBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      gf::mul_region_acc(static_cast<std::uint8_t>(2 + i % 253), src, dst);
    }
    const double dt = seconds_between(t0, Clock::now());
    rates.push_back(static_cast<double>(iters * bytes) / dt / 1e9);
  }
  sink += dst[0];
  return median_of(rates);
}

/// emul::CalendarQueue hold model: `depth` pending events, each step pops
/// the minimum and pushes one event an exponential increment later.
/// Nanoseconds per pop + push.
double micro_calendar(std::size_t depth, std::uint64_t seed,
                      std::uint64_t& sink) {
  util::Rng rng(seed);
  std::vector<double> increments(4096);
  for (auto& inc : increments) inc = -std::log(1.0 - rng.next_double());
  emul::CalendarQueue queue(depth);
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < depth; ++i) queue.push(rng.next_double(), key++);
  const std::uint64_t ops = std::max<std::uint64_t>(1'000'000, 4 * depth);
  std::vector<double> ns;
  for (int b = 0; b < kMicroBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto event = queue.pop();
      queue.push(event.time + increments[i & 4095], key++);
    }
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(ops));
  }
  sink += queue.size();
  return median_of(ns);
}

/// emul::LinkPath::reserve of one slice on a cross-rack path taken from
/// Cluster::path, with the fabric's pages.  Nanoseconds per reserve.
double micro_link(const Workload& w, std::size_t& hops, std::uint64_t& sink) {
  emul::Cluster cluster(cluster::Topology(w.racks), w.fabric);
  const auto& topology = cluster.topology();
  emul::LinkPath path =
      cluster.path(topology.rack_range(0).first, topology.rack_range(1).first);
  hops = path.hops().size();
  constexpr std::uint64_t kReserves = 200'000;
  double t = 0.0;
  std::vector<double> ns;
  for (int b = 0; b < kMicroBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kReserves; ++i) {
      t = path.reserve(t, w.slice, w.fabric.page_bytes);
    }
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(kReserves));
  }
  sink += static_cast<std::uint64_t>(t);
  return median_of(ns);
}

/// Two-thread util::SpscQueue handoff.  Nanoseconds per item.
double micro_spsc(std::uint64_t& sink) {
  constexpr std::uint64_t kItems = 2'000'000;
  std::vector<double> ns;
  for (int b = 0; b < kMicroBatches; ++b) {
    util::SpscQueue<std::uint64_t> queue(1024);
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    std::thread producer([&queue] {
      util::SpscProducerToken<std::uint64_t> token(queue);
      for (std::uint64_t i = 0; i < kItems; ++i) queue.push(i);
      queue.close();
    });
    {
      util::SpscConsumerToken<std::uint64_t> token(queue);
      while (const auto item = queue.pop()) sum += *item;
    }
    producer.join();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(kItems));
    sink += sum;
  }
  return median_of(ns);
}

void write_micro(Json& json, const Workload& w, std::uint64_t seed) {
  std::uint64_t sink = 0;
  std::size_t hops = 0;
  const std::size_t depth =
      std::max<std::size_t>(1, make_inputs(w, seed).affected.size());
  json.open("micro")
      .count("gf_bytes", w.slice)
      .num("gf.mul_acc_gbps", micro_gf(w.slice, seed, sink))
      .count("calendar_depth", depth)
      .num("calendar.ns_per_event", micro_calendar(depth, seed, sink))
      .num("link.ns_per_reserve", micro_link(w, hops, sink))
      .count("link_hops", hops)
      .count("link_bytes", w.slice)
      .num("spsc.ns_per_item", micro_spsc(sink))
      .count("sink", sink)
      .close();
  if (w.fidelity) {
    const auto [rr_bytes, rr_makespan] = rr_baseline(w, seed);
    json.open("rr_baseline")
        .count("cross_rack_bytes", rr_bytes)
        .num("makespan_s", rr_makespan)
        .close();
  }
}

// ---------------------------------------------------------------------------

void write_rep(Json& json, const RepResult& rep) {
  json.open("rep")
      .boolean("threw", rep.threw)
      .str("error", rep.error)
      .num("placement_s", rep.placement_s)
      .num("populate_s", rep.populate_s)
      .num("recover_s", rep.recover_s)
      .num("verify_s", rep.verify_s)
      .count("lost_chunks", rep.lost_chunks)
      .count("rebuilt_chunks", rep.rebuilt_chunks)
      .count("checked_chunks", rep.checked_chunks)
      .count("matching_chunks", rep.matching_chunks)
      .boolean("traffic_claim_ok", rep.traffic_claim_ok)
      .num("makespan_s", rep.makespan_s)
      .count("cross_rack_bytes", rep.cross_rack_bytes)
      .num("lambda", rep.lambda)
      .num("max_exposure_s", rep.max_exposure_s);
  json.open("counts");
  for (const auto& [name, value] : rep.counts) json.count(name, value);
  json.close();
  json.open("layers");
  for (const auto& [name, value] : rep.layers) json.num(name, value);
  json.close();
  json.close();
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "car_bench: %s\nusage: car_bench --workload NAME --seed N "
               "[--trace | --micro] [--smoke]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto epoch = Clock::now();
  std::string name;
  std::optional<std::uint64_t> seed;
  bool trace = false;
  bool micro = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--micro") {
      micro = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("--seed takes a number");
    } else {
      return usage("unknown or incomplete argument: " + std::string(arg));
    }
  }
  const auto workload = make_workload(name, smoke);
  if (!workload) return usage("unknown workload '" + name + "'");
  if (!seed) return usage("--seed is required");
  const Workload& w = *workload;

  Json json;
  json.open()
      .str("workload", name)
      .count("seed", *seed)
      .boolean("smoke", smoke)
      .boolean("trace", trace);
  json.open("build")
      .str("gf_kernel", gf::active_kernels().name)
      .str("compiler", CAR_BENCH_COMPILER)
      .str("build_type", CAR_BENCH_BUILD_TYPE)
      .close();
  json.open("inputs")
      .count("racks", w.racks.size())
      .count("nodes", cluster::Topology(w.racks).num_nodes())
      .count("k", w.k)
      .count("m", w.m)
      .count("stripes", w.stripes)
      .count("chunk_bytes", w.chunk)
      .count("slice_bytes", w.slice)
      .str("strategy", w.car ? "car" : "rr")
      .count("balance_iterations", w.car ? kBalanceIterations : 0)
      .count("sampled_stripes", w.sample)
      .num("second_failure_s", w.second_failure_s)
      .close();

  if (micro) {
    write_micro(json, w, *seed);
  } else {
    Tracer tracer(epoch, trace);
    RepResult rep;
    try {
      rep = w.failure == Failure::kRolling ? rolling(w, *seed, tracer)
                                           : one_shot(w, *seed, tracer);
    } catch (const std::exception& e) {
      rep = RepResult{};
      rep.threw = true;
      rep.error = e.what();
    }
    json.count("peak_rss_bytes", util::peak_rss_bytes());
    write_rep(json, rep);
    tracer.write(json);
  }
  json.close();
  std::printf("%s\n", json.text().c_str());
  return 0;
}
