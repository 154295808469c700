// carctl — command-line driver for the CAR library.
//
// Subcommands:
//   traffic   cross-rack repair traffic, CAR vs RR           (paper Fig. 7)
//   balance   load-balancing rate vs greedy iterations        (paper Fig. 8)
//   simulate  recovery time on the flow-level simulator       (paper Fig. 9)
//   emulate   real-byte recovery on the in-process emulator
//   trace     long-horizon Poisson failure trace study
//   validate  statically check an emitted recovery plan (DAG shape, byte
//             sizing, data flow, aggregator structure, traffic claims)
//   inject-run  execute a fault-injection scenario (src/inject) end to end:
//             link faults, transfer drops/corruption, mid-recovery node
//             crashes with recovery/multi re-planning; verifies bit-exact
//             recovery and can export the deterministic event log as JSON
//   rebuild-run  drive the self-healing rebuild control plane (src/rebuild)
//             over a rolling-failure schedule: exposure scan, prioritized
//             queue, overlapping validated batches, re-plan on every
//             membership change; verifies bit-exact recovery
//
// Common flags:
//   --cfs 1|2|3           pick a paper configuration (Table II), or
//   --racks 4,3,3 --k 6 --m 3   describe a custom cluster
//   --stripes N --runs N --seed S --chunk-mib N --csv
//
// Examples:
//   carctl traffic --cfs 3 --runs 50
//   carctl simulate --racks 5,5,5,5 --k 8 --m 4 --oversub 8 --chunk-mib 16
//   carctl emulate --cfs 2 --stripes 20 --chunk-mib 1
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "inject/scenario.h"
#include "rebuild/scenario.h"
#include "recovery/balancer.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/scheduler.h"
#include "recovery/validate.h"
#include "recovery/weighted.h"
#include "simnet/flowsim.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/rss.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/trace.h"

namespace {

using namespace car;

cluster::CfsConfig config_from(const util::Flags& flags) {
  // Uniform datacenter shorthand: --num-racks R --rack-size N describes R
  // identical racks without spelling out a 100-element --racks list.
  if (flags.has("num-racks") || flags.has("rack-size")) {
    cluster::CfsConfig cfg;
    cfg.name = "uniform";
    const auto num_racks =
        static_cast<std::size_t>(flags.get_int("num-racks", 10));
    const auto rack_size =
        static_cast<std::size_t>(flags.get_int("rack-size", 10));
    if (num_racks == 0 || rack_size == 0) {
      throw std::invalid_argument(
          "--num-racks and --rack-size must be positive");
    }
    cfg.nodes_per_rack.assign(num_racks, rack_size);
    cfg.k = static_cast<std::size_t>(flags.get_int("k", 4));
    cfg.m = static_cast<std::size_t>(flags.get_int("m", 2));
    return cfg;
  }
  if (flags.has("racks") || flags.has("k") || flags.has("m")) {
    cluster::CfsConfig cfg;
    cfg.name = "custom";
    cfg.nodes_per_rack = flags.get_size_list("racks", {4, 3, 3});
    cfg.k = static_cast<std::size_t>(flags.get_int("k", 4));
    cfg.m = static_cast<std::size_t>(flags.get_int("m", 3));
    return cfg;
  }
  const auto index = flags.get_int("cfs", 2);
  if (index < 1 || index > 3) {
    throw std::invalid_argument("--cfs must be 1, 2, or 3");
  }
  return cluster::paper_configs()[static_cast<std::size_t>(index - 1)];
}

void emit(const util::TextTable& table, const util::Flags& flags) {
  if (flags.get_bool("csv")) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_string().c_str(), stdout);
  }
}

int cmd_traffic(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 100));
  const int runs = static_cast<int>(flags.get_int("runs", 50));
  const std::uint64_t chunk =
      static_cast<std::uint64_t>(flags.get_int("chunk-mib", 4)) * util::kMiB;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  util::RunningStats rr_stat, car_stat, rr_lambda, car_lambda;
  for (int run = 0; run < runs; ++run) {
    util::Rng rng(seed + static_cast<std::uint64_t>(run) * 131);
    const auto placement = cluster::Placement::random(
        cfg.topology(), cfg.k, cfg.m, stripes, rng);
    const auto scenario = cluster::inject_random_failure(placement, rng);
    const auto censuses = recovery::build_censuses(placement, scenario);

    const auto rr = recovery::plan_rr(placement, censuses, rng);
    const auto rr_sum =
        recovery::rr_traffic(placement, rr, scenario.failed_rack);
    rr_stat.add(static_cast<double>(rr_sum.total_bytes(chunk)));
    rr_lambda.add(rr_sum.lambda());

    const auto car = recovery::balance_greedy(placement, censuses, {50});
    const auto car_sum = recovery::car_traffic(
        car.solutions, placement.topology().num_racks(),
        scenario.failed_rack);
    car_stat.add(static_cast<double>(car_sum.total_bytes(chunk)));
    car_lambda.add(car_sum.lambda());
  }

  util::TextTable table(
      {"config", "strategy", "cross-rack (mean)", "lambda (mean)"});
  table.add_row({cfg.name, "RR",
                 util::format_bytes(static_cast<std::uint64_t>(rr_stat.mean())),
                 util::fmt_double(rr_lambda.mean(), 3)});
  table.add_row({cfg.name, "CAR",
                 util::format_bytes(static_cast<std::uint64_t>(car_stat.mean())),
                 util::fmt_double(car_lambda.mean(), 3)});
  emit(table, flags);
  std::printf("saving: %s\n",
              util::fmt_percent(1.0 - car_stat.mean() / rr_stat.mean())
                  .c_str());
  return 0;
}

int cmd_balance(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 100));
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 50));
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto scenario = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_censuses(placement, scenario);
  const auto result =
      recovery::balance_greedy(placement, censuses, {iterations});

  util::TextTable table({"iteration", "lambda"});
  for (std::size_t i = 0; i < result.lambda_trace.size(); ++i) {
    table.add_row(
        {std::to_string(i), util::fmt_double(result.lambda_trace[i], 4)});
  }
  emit(table, flags);
  std::printf("substitutions: %zu\n", result.substitutions);
  return 0;
}

int cmd_simulate(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 100));
  const int runs = static_cast<int>(flags.get_int("runs", 20));
  const std::uint64_t chunk =
      static_cast<std::uint64_t>(flags.get_int("chunk-mib", 8)) * util::kMiB;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const rs::Code code(cfg.k, cfg.m);

  simnet::NetConfig net;
  net.node_bps = flags.get_double("node-gbps", 1.0) * 125e6;
  net.oversubscription = flags.get_double("oversub", 5.0);
  net.per_hop_latency_s = flags.get_double("hop-latency-us", 0.0) * 1e-6;

  util::RunningStats rr_stat, car_stat;
  for (int run = 0; run < runs; ++run) {
    util::Rng rng(seed + static_cast<std::uint64_t>(run) * 613);
    const auto placement = cluster::Placement::random(
        cfg.topology(), cfg.k, cfg.m, stripes, rng);
    const auto scenario = cluster::inject_random_failure(placement, rng);
    const auto censuses = recovery::build_censuses(placement, scenario);
    const double lost = static_cast<double>(scenario.lost.size());

    const auto rr = recovery::plan_rr(placement, censuses, rng);
    rr_stat.add(simnet::simulate_plan(
                    placement.topology(),
                    recovery::build_rr_plan(placement, code, rr, chunk,
                                            scenario.failed_node),
                    net)
                    .makespan_s /
                lost);
    const auto car = recovery::balance_greedy(placement, censuses, {50});
    car_stat.add(simnet::simulate_plan(
                     placement.topology(),
                     recovery::build_car_plan(placement, code, car.solutions,
                                              chunk, scenario.failed_node),
                     net)
                     .makespan_s /
                 lost);
  }
  util::TextTable table({"config", "strategy", "time/chunk (s)", "stddev"});
  table.add_row({cfg.name, "RR", util::fmt_double(rr_stat.mean(), 4),
                 util::fmt_double(rr_stat.sample_stddev(), 4)});
  table.add_row({cfg.name, "CAR", util::fmt_double(car_stat.mean(), 4),
                 util::fmt_double(car_stat.sample_stddev(), 4)});
  emit(table, flags);
  std::printf("speedup: %s\n",
              util::fmt_percent(1.0 - car_stat.mean() / rr_stat.mean())
                  .c_str());
  return 0;
}

// Arena-backed scale path for `carctl emulate`, engaged by --metadata-only,
// --shards, or --fail-rack.  Plans through recovery/multi (a full-rack
// failure is just a multi-failure whose node set is one rack), lowers the
// plan into a columnar PlanArena, materialises real bytes only for the
// sampled stripes under --metadata-only, and executes it on the virtual
// clock: a stripe-sharded payload pass, then one sequential timing replay.
// The reported timeline is invariant in both the shard count and the
// payload mode; the sampled stripes are verified bit-exactly against their
// seeded originals.
int cmd_emulate_scale(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 20));
  const std::uint64_t chunk = static_cast<std::uint64_t>(
      flags.get_double("chunk-mib", 0.25) * static_cast<double>(util::kMiB));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  const bool metadata_only = flags.get_bool("metadata-only", false);
  const auto sample = static_cast<std::size_t>(flags.get_int("sample", 4));
  const bool fail_rack = flags.get_bool("fail-rack", false);
  const bool json = flags.get_bool("json", false);
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 0));
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
  const std::string strategy = flags.get("strategy", "car");
  const bool stream = flags.get_bool("stream", false);
  const rs::Code code(cfg.k, cfg.m);

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = flags.get_double("node-mbps", 400.0) * 1e6;
  emul_cfg.oversubscription = flags.get_double("oversub", 5.0);

  const auto host_start = std::chrono::steady_clock::now();
  emul::Cluster cluster(cfg.topology(), emul_cfg);
  util::Rng place_rng(seed);
  const auto placement = cluster::Placement::random(
      cfg.topology(), cfg.k, cfg.m, stripes, place_rng);
  const auto& topology = placement.topology();

  // Seeded failure choice: a random data-bearing node, widened to its whole
  // rack under --fail-rack.  The first failed node doubles as the
  // replacement slot, as in the single-failure flow.
  util::Rng fail_rng(seed + 1);
  const auto first_failed =
      cluster::inject_random_failure(placement, fail_rng).failed_node;
  std::vector<cluster::NodeId> failed_nodes{first_failed};
  if (fail_rack) {
    for (const auto node :
         topology.nodes_in_rack(topology.rack_of(first_failed))) {
      if (node != first_failed) failed_nodes.push_back(node);
    }
  }
  const auto mf = recovery::make_multi_failure(placement, failed_nodes);

  // Per-phase host timing: scan (census), plan (rack selection +
  // balancing), lower (template-cached plan instantiation straight into
  // the columnar arena), replay (payload pass + virtual-clock timing
  // replay).  Each phase is timed around exactly one call.
  const auto phase_clock = [] { return std::chrono::steady_clock::now(); };
  const auto phase_s = [](auto since, auto until) {
    return std::chrono::duration<double>(until - since).count();
  };

  const auto pipeline_start = phase_clock();
  auto t = pipeline_start;
  const auto censuses = recovery::build_multi_censuses(placement, mf, shards);
  const double scan_s = phase_s(t, phase_clock());
  if (censuses.empty()) {
    std::puts("no stripe lost a chunk — nothing to recover");
    return 0;
  }

  // Solve first in both modes: CAR's load balancing is a global barrier
  // (Algorithm 2 iterates over every census), so the streamed pipeline
  // overlaps the phases downstream of it — lowering against replay.
  const std::uint64_t slice =
      slice_bytes > 0 ? slice_bytes : std::max<std::uint64_t>(chunk, 1);
  recovery::PlanTemplateCache cache;
  double plan_s = 0.0;
  std::vector<recovery::MultiStripeSolution> car_solutions;
  std::vector<recovery::MultiRrSolution> rr_solutions;
  if (strategy == "car") {
    t = phase_clock();
    auto balanced = recovery::balance_multi(placement, censuses, iterations);
    plan_s = phase_s(t, phase_clock());
    car_solutions = std::move(balanced.solutions);
  } else if (strategy == "rr") {
    util::Rng rr_rng(seed + 2);
    t = phase_clock();
    rr_solutions = recovery::plan_multi_rr(placement, censuses, rr_rng);
    plan_s = phase_s(t, phase_clock());
  } else {
    throw std::invalid_argument("--strategy must be car or rr");
  }
  const std::size_t num_solutions =
      strategy == "car" ? car_solutions.size() : rr_solutions.size();

  // Stripes that carry real bytes: the first --sample distinct output
  // stripes under --metadata-only, every stripe otherwise (survivors of
  // affected stripes must hold bytes for the transfers to read).  Output
  // stripe order is exactly solution order, so the selection is known
  // before a single plan row is lowered — which is what lets the streamed
  // mode seed payloads up front.
  std::vector<cluster::StripeId> materialise;
  if (metadata_only) {
    for (std::size_t i = 0; i < num_solutions && materialise.size() < sample;
         ++i) {
      materialise.push_back(strategy == "car" ? car_solutions[i].stripe
                                              : rr_solutions[i].stripe);
    }
  } else {
    materialise.resize(stripes);
    std::iota(materialise.begin(), materialise.end(), cluster::StripeId{0});
  }
  const auto originals = cluster.populate_sampled(placement, code, chunk,
                                                  seed, materialise);
  for (const auto node : mf.failed_nodes) cluster.erase_node(node);

  emul::ArenaExecOptions options;
  options.shards = shards;
  options.metadata_only = metadata_only;
  if (metadata_only) options.sampled_stripes = materialise;

  double lower_s = 0.0;
  double replay_s = 0.0;
  recovery::PlanArena arena;
  emul::ExecutionReport report;
  if (!stream) {
    t = phase_clock();
    arena = strategy == "car"
                ? recovery::build_multi_car_arena(placement, code,
                                                  car_solutions, chunk, slice,
                                                  mf.replacement, cache)
                : recovery::build_multi_rr_arena(placement, code, rr_solutions,
                                                 chunk, slice, mf.replacement,
                                                 cache);
    lower_s = phase_s(t, phase_clock());
    t = phase_clock();
    report = cluster.execute_arena(arena, options);
    replay_s = phase_s(t, phase_clock());
  } else {
    // Streamed pipeline: the reserve pass fixes the arena's extents, then
    // a producer thread instantiates templates and publishes its
    // stripe-closed row watermark while the executor replays published
    // rows concurrently.  lower_s is the producer's host effort (reserve +
    // append) even though the append overlaps replay wall-clock time.
    t = phase_clock();
    recovery::ArenaStreamBuild build =
        strategy == "car"
            ? recovery::reserve_multi_car_arena(placement, car_solutions,
                                                chunk, slice, mf.replacement,
                                                cache)
            : recovery::reserve_multi_rr_arena(placement, rr_solutions, chunk,
                                               slice, mf.replacement, cache);
    const double reserve_s = phase_s(t, phase_clock());
    emul::ArenaStreamFeed feed;
    std::exception_ptr produce_error;
    double append_s = 0.0;
    std::thread producer([&] {
      // Closes the feed on every exit, so the executor's ingest loop
      // terminates (its closed-before-published check turns an early close
      // into a failure there).
      const emul::ArenaStreamFeed::ProducerGuard close_feed(feed);
      const auto p0 = phase_clock();
      try {
        const auto publish = [&feed](std::uint64_t rows) {
          feed.publish(rows);
        };
        if (strategy == "car") {
          recovery::stream_multi_car_arena(build, placement, code,
                                           car_solutions, cache, publish);
        } else {
          recovery::stream_multi_rr_arena(build, placement, code,
                                          rr_solutions, cache, publish);
        }
      } catch (...) {
        produce_error = std::current_exception();
      }
      append_s = phase_s(p0, phase_clock());
    });
    t = phase_clock();
    try {
      report = cluster.execute_arena_streaming(build.arena, options, feed);
    } catch (...) {
      producer.join();
      if (produce_error) std::rethrow_exception(produce_error);
      throw;
    }
    replay_s = phase_s(t, phase_clock());
    producer.join();
    if (produce_error) std::rethrow_exception(produce_error);
    lower_s = reserve_s + append_s;
    arena = std::move(build.arena);
  }
  const double end_to_end_s = phase_s(pipeline_start, phase_clock());
  const auto outputs = arena.outputs();

  std::size_t expected = 0;
  std::size_t verified = 0;
  for (const auto& out : outputs) {
    const auto it = originals.find(out.stripe);
    if (it == originals.end()) continue;
    ++expected;
    const auto* rec =
        cluster.find_chunk(mf.replacement, out.stripe, out.chunk_index);
    verified += rec != nullptr && *rec == it->second[out.chunk_index];
  }
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  if (json) {
    std::printf(
        "{\n"
        "  \"command\": \"emulate-scale\",\n"
        "  \"strategy\": \"%s\",\n"
        "  \"stripes\": %zu,\n"
        "  \"racks\": %zu,\n"
        "  \"nodes\": %zu,\n"
        "  \"failure\": \"%s\",\n"
        "  \"affected_stripes\": %zu,\n"
        "  \"plan_steps\": %llu,\n"
        "  \"outputs\": %zu,\n"
        "  \"metadata_only\": %s,\n"
        "  \"shards\": %zu,\n"
        "  \"makespan_s\": %.17g,\n"
        "  \"cross_rack_bytes\": %llu,\n"
        "  \"verified_outputs\": %zu,\n"
        "  \"expected_outputs\": %zu,\n"
        "  \"timing\": {\n"
        "    \"shards\": %zu,\n"
        "    \"streamed\": %s,\n"
        "    \"scan_s\": %.6f,\n"
        "    \"plan_s\": %.6f,\n"
        "    \"lower_s\": %.6f,\n"
        "    \"replay_s\": %.6f,\n"
        "    \"end_to_end_s\": %.6f,\n"
        "    \"host_s\": %.6f,\n"
        "    \"peak_rss_mib\": %.1f,\n"
        "    \"template_cache_hits\": %zu,\n"
        "    \"template_cache_misses\": %zu\n"
        "  }\n"
        "}\n",
        strategy.c_str(), stripes, topology.num_racks(), topology.num_nodes(),
        fail_rack ? "full-rack" : "single-node", censuses.size(),
        static_cast<unsigned long long>(arena.num_base_steps()),
        outputs.size(), metadata_only ? "true" : "false", shards,
        report.wall_s,
        static_cast<unsigned long long>(report.cross_rack_bytes), verified,
        expected, shards, stream ? "true" : "false", scan_s, plan_s,
        lower_s, replay_s, end_to_end_s, host_s,
        static_cast<double>(util::peak_rss_bytes()) /
            static_cast<double>(util::kMiB),
        cache.stats().hits, cache.stats().misses);
    return verified == expected && expected > 0 ? 0 : 1;
  }

  std::printf("%s | %zu racks x %zu nodes | %zu stripes | %s failure\n",
              strategy.c_str(), topology.num_racks(),
              topology.num_nodes() / topology.num_racks(), stripes,
              fail_rack ? "full-rack" : "single-node");
  std::printf("  affected stripes %zu | plan steps %llu | outputs %zu\n",
              censuses.size(),
              static_cast<unsigned long long>(arena.num_base_steps()),
              outputs.size());
  std::printf("  mode %s%s | shards %zu | sampled stripes %zu\n",
              metadata_only ? "metadata-only" : "real-bytes",
              stream ? " (streamed)" : "", shards, materialise.size());
  std::printf("  timing: scan %.3f s | plan %.3f s | lower %.3f s | replay "
              "%.3f s (templates: %zu planned, %zu reused)\n",
              scan_s, plan_s, lower_s, replay_s, cache.stats().misses,
              cache.stats().hits);
  std::printf("  makespan %.3f s | cross-rack %s | end-to-end %.2f s | host "
              "%.2f s | peak rss %.0f MiB\n",
              report.wall_s,
              util::format_bytes(report.cross_rack_bytes).c_str(),
              end_to_end_s, host_s,
              static_cast<double>(util::peak_rss_bytes()) /
                  static_cast<double>(util::kMiB));
  std::printf("  verified %zu/%zu sampled outputs bit-exact\n", verified,
              expected);
  return verified == expected && expected > 0 ? 0 : 1;
}

int cmd_emulate(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 20));
  const std::uint64_t chunk = static_cast<std::uint64_t>(
      flags.get_double("chunk-mib", 0.25) * static_cast<double>(util::kMiB));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 0));
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
  const rs::Code code(cfg.k, cfg.m);

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = flags.get_double("node-mbps", 400.0) * 1e6;
  emul_cfg.oversubscription = flags.get_double("oversub", 5.0);

  auto run = [&](bool use_car) {
    emul::Cluster cluster(cfg.topology(), emul_cfg);
    util::Rng data_rng(seed);
    const auto placement = cluster::Placement::random(
        cfg.topology(), cfg.k, cfg.m, stripes, data_rng);
    const auto originals = cluster.populate(placement, code, chunk, data_rng);
    util::Rng fail_rng(seed + 1);
    const auto scenario =
        cluster::inject_random_failure(placement, fail_rng);
    cluster.erase_node(scenario.failed_node);
    const auto censuses = recovery::build_censuses(placement, scenario);
    recovery::RecoveryPlan plan;
    if (use_car) {
      const auto balanced =
          recovery::balance_greedy(placement, censuses, {50});
      plan = recovery::build_car_plan(placement, code, balanced.solutions,
                                      chunk, scenario.failed_node);
    } else {
      util::Rng rr_rng(seed + 2);
      const auto rr = recovery::plan_rr(placement, censuses, rr_rng);
      plan = recovery::build_rr_plan(placement, code, rr, chunk,
                                     scenario.failed_node);
    }
    if (window > 0) plan = recovery::schedule_windowed(plan, window);
    // --slice-kib > 0 lowers the plan onto a slice grid so cross-rack
    // shipping of slice s overlaps partial decoding of slice s+1; the
    // recovered bytes and traffic totals are identical either way.
    const auto report =
        slice_bytes > 0
            ? cluster.execute(recovery::slice_plan(plan, slice_bytes))
            : cluster.execute(plan);
    std::size_t verified = 0;
    for (const auto& lost : scenario.lost) {
      const auto* rec = cluster.find_chunk(scenario.failed_node, lost.stripe,
                                           lost.chunk_index);
      verified += rec != nullptr &&
                  *rec == originals[lost.stripe][lost.chunk_index];
    }
    std::printf("%-4s verified %zu/%zu | wall %.3f s | compute %.3f s | "
                "cross-rack %s\n",
                use_car ? "CAR" : "RR", verified, scenario.lost.size(),
                report.wall_s, report.compute_s,
                util::format_bytes(report.cross_rack_bytes).c_str());
    return report.wall_s;
  };
  const double rr_wall = run(false);
  const double car_wall = run(true);
  std::printf("speedup: %s\n",
              util::fmt_percent(1.0 - car_wall / rr_wall).c_str());
  return 0;
}

// Deliberately corrupt a well-formed plan so the validator's rejection paths
// can be exercised end to end (`--inject`): each fixture mirrors one class of
// planner bug the validator must catch.
void inject_fault(recovery::RecoveryPlan& plan,
                  const cluster::Topology& topology,
                  const std::string& fault) {
  if (fault == "cycle") {
    // The first step of stripe 0 feeds (transitively) its final compute;
    // making it also *depend* on that compute closes a cycle.
    if (plan.steps.empty() || plan.outputs.empty()) return;
    plan.steps.front().deps.push_back(plan.outputs.front().step_id);
    return;
  }
  if (fault == "dangling-dep") {
    if (plan.steps.empty()) return;
    plan.steps.back().deps.push_back(plan.steps.size() + 1000);
    return;
  }
  if (fault == "byte-mismatch") {
    for (auto& step : plan.steps) {
      if (step.kind == recovery::StepKind::kTransfer) {
        step.bytes += 1;
        return;
      }
    }
    return;
  }
  if (fault == "double-aggregator") {
    // Duplicate an aggregator compute onto a sibling node in the same rack:
    // the rack now funnels through two aggregators for one stripe.
    for (const auto& step : plan.steps) {
      if (step.kind != recovery::StepKind::kCompute) continue;
      if (step.node == plan.replacement) continue;
      for (const auto sibling :
           topology.nodes_in_rack(topology.rack_of(step.node))) {
        if (sibling == step.node || sibling == plan.replacement) continue;
        recovery::PlanStep twin = step;
        twin.id = plan.steps.size();
        twin.node = sibling;
        plan.steps.push_back(std::move(twin));
        return;
      }
    }
    return;
  }
  throw std::invalid_argument(
      "--inject must be one of cycle, dangling-dep, byte-mismatch, "
      "double-aggregator");
}

int cmd_validate(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 50));
  const std::uint64_t chunk =
      static_cast<std::uint64_t>(flags.get_int("chunk-mib", 4)) * util::kMiB;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 0));
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
  const std::string strategy = flags.get("strategy", "all");
  const std::string inject = flags.get("inject", "");
  const rs::Code code(cfg.k, cfg.m);

  util::Rng rng(seed);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto& topology = placement.topology();
  const auto scenario = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_censuses(placement, scenario);
  const auto replacement_rack = topology.rack_of(scenario.failed_node);

  struct Candidate {
    std::string name;
    recovery::RecoveryPlan plan;
    std::optional<std::uint64_t> claimed;
  };
  std::vector<Candidate> candidates;
  const bool all = strategy == "all";

  if (all || strategy == "car") {
    const auto car = recovery::balance_greedy(placement, censuses, {50});
    candidates.push_back(
        {"car",
         recovery::build_car_plan(placement, code, car.solutions, chunk,
                                  scenario.failed_node),
         recovery::claimed_cross_rack_chunks(car.solutions,
                                             replacement_rack)});
  }
  if (all || strategy == "rr") {
    util::Rng rr_rng(seed + 1);
    const auto rr = recovery::plan_rr(placement, censuses, rr_rng);
    const auto summary =
        recovery::rr_traffic(placement, rr, scenario.failed_rack);
    candidates.push_back(
        {"rr",
         recovery::build_rr_plan(placement, code, rr, chunk,
                                 scenario.failed_node),
         summary.total_chunks()});
  }
  if (all || strategy == "weighted") {
    std::vector<double> bandwidth(topology.num_racks());
    for (std::size_t i = 0; i < bandwidth.size(); ++i) {
      bandwidth[i] = 1.0 + static_cast<double>(i % 3);
    }
    const auto weighted =
        recovery::balance_weighted(placement, censuses, bandwidth);
    candidates.push_back(
        {"weighted",
         recovery::build_car_plan(placement, code, weighted.solutions, chunk,
                                  scenario.failed_node),
         recovery::claimed_cross_rack_chunks(weighted.solutions,
                                             replacement_rack)});
  }
  if (all || strategy == "multi") {
    const auto multi_scenario = recovery::make_multi_failure(
        placement, {scenario.failed_node,
                    (scenario.failed_node + 1) % topology.num_nodes()});
    const auto multi_censuses =
        recovery::build_multi_censuses(placement, multi_scenario);
    const auto balanced = recovery::balance_multi(placement, multi_censuses);
    candidates.push_back(
        {"multi",
         recovery::build_multi_car_plan(placement, code, balanced.solutions,
                                        chunk, multi_scenario.replacement),
         recovery::claimed_cross_rack_chunks(balanced.solutions,
                                             multi_scenario.replacement_rack)});
  }
  if (candidates.empty()) {
    throw std::invalid_argument(
        "--strategy must be car, rr, weighted, multi, or all");
  }

  util::TextTable table({"plan", "steps", "verdict", "errors"});
  bool all_ok = true;
  for (auto& candidate : candidates) {
    if (window > 0) {
      candidate.plan = recovery::schedule_windowed(candidate.plan, window);
    }
    if (!inject.empty()) {
      inject_fault(candidate.plan, topology, inject);
    }
    recovery::ValidateOptions options;
    options.placement = &placement;
    options.expected_cross_rack_chunks = candidate.claimed;
    auto report = recovery::validate_plan(candidate.plan, topology, options);
    if (slice_bytes > 0) {
      // Also check the slice lowering the executors would run.  slice_plan
      // itself throws on plans that break the slicing contract (e.g. an
      // injected byte-mismatch), which counts as a validation failure.
      try {
        const auto sliced =
            recovery::slice_plan(candidate.plan, slice_bytes);
        auto sliced_report =
            recovery::validate_sliced_plan(sliced, candidate.plan, topology);
        for (auto& err : sliced_report.errors) {
          report.errors.push_back("sliced: " + std::move(err));
        }
        for (auto& note : sliced_report.notes) {
          report.notes.push_back("sliced: " + std::move(note));
        }
      } catch (const std::exception& e) {
        report.errors.push_back(std::string("sliced: slice_plan rejected "
                                            "the plan: ") +
                                e.what());
      }
    }
    all_ok = all_ok && report.ok();
    table.add_row({candidate.name,
                   std::to_string(candidate.plan.steps.size()),
                   report.ok() ? "ok" : "INVALID",
                   std::to_string(report.errors.size())});
    if (!report.ok()) {
      std::fputs(report.to_string().c_str(), stderr);
    }
  }
  emit(table, flags);
  return all_ok ? 0 : 1;
}

int cmd_trace(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 100));
  const auto failures =
      static_cast<std::size_t>(flags.get_int("failures", 30));
  const std::uint64_t chunk =
      static_cast<std::uint64_t>(flags.get_int("chunk-mib", 8)) * util::kMiB;
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));

  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto events = workload::generate_failure_trace(
      placement.topology(), {failures, 24.0 * 3600.0}, rng);
  const simnet::NetConfig net;

  util::TextTable table({"strategy", "chunks rebuilt", "cross-rack",
                         "exposure (s)", "trace lambda"});
  for (const auto strategy :
       {workload::Strategy::kRr, workload::Strategy::kCar}) {
    util::Rng replay = rng.split();
    const auto report = workload::run_failure_trace(placement, events,
                                                    strategy, chunk, net,
                                                    replay);
    table.add_row({strategy == workload::Strategy::kCar ? "CAR" : "RR",
                   std::to_string(report.chunks_rebuilt),
                   util::format_bytes(report.cross_rack_bytes),
                   util::fmt_double(report.total_recovery_s, 1),
                   util::fmt_double(report.aggregate_lambda, 3)});
  }
  emit(table, flags);
  return 0;
}

// Run one fault-injection scenario end to end on the virtual-clock emulator:
// plan recovery, validate, execute under the scenario's FaultPlan with
// timeouts/retries/re-plans, and verify the recovered bytes.  Exit 0 only
// when recovery completed, every validation passed, and every recovered
// chunk is bit-exact.
int cmd_inject_run(const util::Flags& flags) {
  if (flags.get_bool("list")) {
    for (const auto& name : inject::canned_scenario_names()) {
      const auto scenario = inject::canned_scenario(name);
      std::printf("%-22s %zu racks, k=%zu m=%zu, %zu stripes, %zu faults\n",
                  name.c_str(), scenario.racks.size(), scenario.k, scenario.m,
                  scenario.stripes,
                  scenario.faults.link_faults.size() +
                      scenario.faults.transfer_faults.size() +
                      scenario.faults.node_crashes.size());
    }
    return 0;
  }

  inject::Scenario scenario;
  if (flags.has("spec")) {
    std::ifstream in(flags.get("spec", ""));
    if (!in) {
      throw std::invalid_argument("inject-run: cannot open --spec file");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    scenario = inject::parse_scenario(buffer.str());
  } else {
    scenario =
        inject::canned_scenario(flags.get("scenario", "mid-recovery-crash"));
  }
  if (flags.has("strategy")) scenario.strategy = flags.get("strategy", "car");
  if (flags.has("seed")) {
    scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  }
  if (flags.has("slice-kib")) {
    scenario.slice_bytes =
        static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
  }

  const auto outcome = inject::run_scenario(scenario);
  const auto& run = outcome.run;

  if (flags.has("log-out")) {
    std::ofstream out(flags.get("log-out", ""));
    if (!out) {
      throw std::invalid_argument("inject-run: cannot open --log-out file");
    }
    out << run.log.to_json();
  }
  if (flags.get_bool("json")) {
    std::fputs(run.log.to_json().c_str(), stdout);
  }

  std::printf("scenario %s (%s): failed node %zu%s\n", scenario.name.c_str(),
              scenario.strategy.c_str(),
              static_cast<std::size_t>(outcome.failed_node),
              run.replanned ? ", re-planned after mid-recovery crash" : "");
  std::printf("  events: %s\n", run.log.summary().c_str());
  std::printf(
      "  transfers: %zu attempts (%zu retries, %zu timeouts, %zu drops, "
      "%zu corrupt), wasted wire %s\n",
      run.stats.attempts, run.stats.retries, run.stats.timeouts,
      run.stats.drops, run.stats.corruptions,
      util::format_bytes(run.stats.wasted_wire_bytes).c_str());
  std::printf("  recovery: wall %.3f s | cross-rack %s | chunks %zu/%zu "
              "bit-exact\n",
              run.report.wall_s,
              util::format_bytes(run.report.cross_rack_bytes).c_str(),
              outcome.chunks_verified, outcome.chunks_expected);

  const bool ok = outcome.bit_exact && outcome.chunks_expected > 0 &&
                  outcome.initial_validation.ok() &&
                  (!run.replanned || run.replan_validation.ok());
  std::printf("  result: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// Drive the rebuild control plane over a rolling-failure scenario: every
// `crash node=N at=T` line is a membership event, affected stripes are
// scanned and prioritized by exposure, and up to `concurrency` validated
// batches overlap on one virtual timeline.  Exit 0 only when every lost
// chunk was recovered and every materialised chunk is bit-exact.
int cmd_rebuild_run(const util::Flags& flags) {
  if (flags.get_bool("list")) {
    for (const auto& name : rebuild::canned_rebuild_scenario_names()) {
      const auto scenario = rebuild::canned_rebuild_scenario(name);
      std::printf(
          "%-22s %zu racks, k=%zu m=%zu, %zu stripes, %zu rolling failures\n",
          name.c_str(), scenario.racks.size(), scenario.k, scenario.m,
          scenario.stripes, scenario.faults.node_crashes.size());
    }
    return 0;
  }

  inject::Scenario scenario;
  if (flags.has("spec")) {
    std::ifstream in(flags.get("spec", ""));
    if (!in) {
      throw std::invalid_argument("rebuild-run: cannot open --spec file");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    scenario = inject::parse_scenario(buffer.str());
  } else {
    scenario = rebuild::canned_rebuild_scenario(
        flags.get("scenario", "rolling-two-rack"));
  }
  if (flags.has("strategy")) scenario.strategy = flags.get("strategy", "car");
  if (flags.has("seed")) {
    scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  }
  if (flags.has("slice-kib")) {
    scenario.slice_bytes =
        static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) * util::kKiB;
  }
  if (flags.has("batch-stripes")) {
    scenario.rebuild_batch_stripes =
        static_cast<std::size_t>(flags.get_int("batch-stripes", 4));
  }
  if (flags.has("concurrency")) {
    scenario.rebuild_concurrency =
        static_cast<std::size_t>(flags.get_int("concurrency", 2));
  }
  const auto shards =
      static_cast<std::size_t>(flags.get_int("shards", 1));

  const auto outcome = rebuild::run_rebuild_scenario(scenario, shards);
  const auto& result = outcome.result;

  if (flags.has("log-out")) {
    std::ofstream out(flags.get("log-out", ""));
    if (!out) {
      throw std::invalid_argument("rebuild-run: cannot open --log-out file");
    }
    out << result.log.to_json();
  }
  if (flags.get_bool("json")) {
    // The event log stays a pure function of (scenario, seed) — host
    // timing lives only in this wrapper, never in the log (CI diffs
    // --log-out files byte-for-byte across runs and shard counts).
    // shards makes the row reproducible from the JSON alone.
    std::printf(
        "{\n"
        "  \"timing\": {\n"
        "    \"shards\": %zu,\n"
        "    \"scan_s\": %.6f,\n"
        "    \"plan_s\": %.6f,\n"
        "    \"template_cache_hits\": %zu,\n"
        "    \"template_cache_misses\": %zu\n"
        "  },\n"
        "  \"log\": ",
        shards, result.metrics.scan_host_s, result.metrics.plan_host_s,
        result.metrics.template_cache_hits,
        result.metrics.template_cache_misses);
    std::fputs(result.log.to_json().c_str(), stdout);
    std::fputs("}\n", stdout);
  }

  std::string failed;
  for (const auto node : result.failed_nodes) {
    if (!failed.empty()) failed += ",";
    failed += std::to_string(node);
  }
  std::printf("scenario %s (%s): %zu rolling failures [%s] -> replacement "
              "%zu\n",
              scenario.name.c_str(), scenario.strategy.c_str(),
              result.failed_nodes.size(), failed.c_str(),
              static_cast<std::size_t>(result.replacement));
  std::printf("  events: %s\n", result.log.summary().c_str());
  std::printf("  control plane: %zu scans, %zu batches (%zu cancelled, "
              "%zu stripes re-queued)\n",
              result.metrics.scans, result.metrics.batches_dispatched,
              result.metrics.batches_cancelled,
              result.metrics.stripes_requeued);
  std::printf("  planning host time: scan %.3f s | plan %.3f s "
              "(templates: %zu planned, %zu reused)\n",
              result.metrics.scan_host_s, result.metrics.plan_host_s,
              result.metrics.template_cache_misses,
              result.metrics.template_cache_hits);
  std::printf("  makespan %.3f s | exposure max %.3f s total %.3f s | "
              "at-risk max %.3f s total %.3f s\n",
              result.metrics.makespan_s, result.metrics.max_exposure_s,
              result.metrics.total_exposure_s, result.metrics.max_at_risk_s,
              result.metrics.total_at_risk_s);
  std::printf("  traffic: cross-rack %s | intra-rack %s | %zu transfer "
              "attempts (%zu retries)\n",
              util::format_bytes(result.report.cross_rack_bytes).c_str(),
              util::format_bytes(result.report.intra_rack_bytes).c_str(),
              result.stats.attempts, result.stats.retries);
  std::printf("  recovery: %zu chunks rebuilt, %zu/%zu bit-exact on %zu "
              "materialised stripes\n",
              result.recovered.size(), outcome.chunks_verified,
              outcome.chunks_expected, outcome.stripes_materialised);

  const bool ok = outcome.bit_exact && outcome.chunks_expected > 0;
  std::printf("  result: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

void usage() {
  std::puts(
      "usage: carctl "
      "<traffic|balance|simulate|emulate|trace|validate|inject-run|"
      "rebuild-run> [flags]\n"
      "  --cfs 1|2|3 | --racks 4,3,3 --k 6 --m 3 | "
      "--num-racks R --rack-size N\n"
      "  --stripes N --runs N --seed S --chunk-mib N --csv\n"
      "  simulate: --node-gbps G --oversub X --hop-latency-us U\n"
      "  emulate:  --node-mbps M --oversub X --window W --slice-kib S\n"
      "            scale path (arena engine): --metadata-only --sample N\n"
      "            --shards N --fail-rack --iterations I\n"
      "            --strategy car|rr --stream --json\n"
      "  trace:    --failures N\n"
      "  validate: --strategy car|rr|weighted|multi|all --window W\n"
      "            --slice-kib S (also validate the slice lowering)\n"
      "            --inject cycle|dangling-dep|byte-mismatch|"
      "double-aggregator\n"
      "  inject-run: --scenario NAME | --spec FILE | --list\n"
      "              --strategy car|rr --seed S --slice-kib S --json "
      "--log-out PATH\n"
      "  rebuild-run: --scenario NAME | --spec FILE | --list\n"
      "              --strategy car|rr --seed S --slice-kib S "
      "--batch-stripes N\n"
      "              --concurrency N --shards N --json --log-out PATH");
}

/// One subcommand: its handler and every flag it reads.  Flags outside the
/// list are rejected before the handler runs, so a mistyped or retired flag
/// fails loudly instead of being ignored.
struct Command {
  std::string_view name;
  int (*run)(const util::Flags&);
  std::vector<std::string_view> flags;
};

/// Counts and sizes: a negative value is rejected up front rather than
/// wrapping when cast to an unsigned type.
constexpr std::string_view kNonNegativeFlags[] = {
    "stripes",   "runs",      "chunk-mib", "iterations",    "failures",
    "window",    "slice-kib", "shards",    "sample",        "k",
    "m",         "num-racks", "rack-size", "batch-stripes", "concurrency"};

/// `flags` plus the cluster-shape flags config_from reads.
std::vector<std::string_view> with_cluster_flags(
    std::vector<std::string_view> flags) {
  flags.insert(flags.end(),
               {"cfs", "racks", "k", "m", "num-racks", "rack-size"});
  return flags;
}

/// The subcommand `name` names, or nullptr.  `emulate` has two entries:
/// its scale path runs when a scale-only switch is present.
const Command* find_command(std::string_view name, const util::Flags& flags) {
  static const std::vector<Command> commands = {
      {"traffic", cmd_traffic,
       with_cluster_flags({"stripes", "runs", "chunk-mib", "seed", "csv"})},
      {"balance", cmd_balance,
       with_cluster_flags({"stripes", "iterations", "seed", "csv"})},
      {"simulate", cmd_simulate,
       with_cluster_flags({"stripes", "runs", "chunk-mib", "seed", "csv",
                           "node-gbps", "oversub", "hop-latency-us"})},
      {"emulate", cmd_emulate,
       with_cluster_flags({"stripes", "chunk-mib", "seed", "window",
                           "slice-kib", "node-mbps", "oversub"})},
      {"emulate", cmd_emulate_scale,
       with_cluster_flags({"stripes", "chunk-mib", "seed", "shards",
                           "metadata-only", "sample", "fail-rack", "json",
                           "iterations", "slice-kib", "strategy", "stream",
                           "node-mbps", "oversub"})},
      {"trace", cmd_trace,
       with_cluster_flags(
           {"stripes", "failures", "chunk-mib", "seed", "csv"})},
      {"validate", cmd_validate,
       with_cluster_flags({"stripes", "chunk-mib", "seed", "window",
                           "slice-kib", "strategy", "inject", "csv"})},
      {"inject-run", cmd_inject_run,
       {"list", "spec", "scenario", "strategy", "seed", "slice-kib",
        "log-out", "json"}},
      {"rebuild-run", cmd_rebuild_run,
       {"list", "spec", "scenario", "strategy", "seed", "slice-kib",
        "batch-stripes", "concurrency", "shards", "log-out", "json"}},
  };
  const bool scale = flags.has("metadata-only") || flags.has("shards") ||
                     flags.has("fail-rack");
  for (const Command& command : commands) {
    if (command.name != name) continue;
    if (name == "emulate" && (command.run == cmd_emulate_scale) != scale) {
      continue;
    }
    return &command;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string name = argv[1];
  try {
    const auto flags = util::Flags::parse(argc - 2, argv + 2);
    const Command* command = find_command(name, flags);
    if (command == nullptr) {
      usage();
      return 2;
    }
    flags.check(name, command->flags, kNonNegativeFlags);
    return command->run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "carctl: %s\n", error.what());
    return 1;
  }
}
