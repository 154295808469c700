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
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "emul/cluster.h"
#include "emul/recover.h"
#include "inject/scenario.h"
#include "rebuild/scenario.h"
#include "recovery/multi.h"
#include "recovery/plan_arena.h"
#include "recovery/replan.h"
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

/// --chunk-mib in bytes; fractions of a MiB are allowed, and check_bounds
/// has kept the byte count under 2^64.
std::uint64_t chunk_bytes(const util::Flags& flags, double fallback_mib) {
  const double mib = flags.get_double("chunk-mib", fallback_mib);
  return static_cast<std::uint64_t>(mib * static_cast<double>(util::kMiB));
}

/// --slice-kib in bytes, 0 when absent; check_bounds has kept the byte
/// count under 2^64.
std::uint64_t slice_kib_bytes(const util::Flags& flags) {
  return static_cast<std::uint64_t>(flags.get_int("slice-kib", 0)) *
         util::kKiB;
}

/// --strategy of a subcommand that runs one planner (car|rr), parsed before
/// the command does any work.
recovery::Strategy strategy_flag(std::string_view command,
                                 const util::Flags& flags) {
  try {
    return recovery::parse_strategy(flags.get("strategy", "car"));
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(command) +
                                ": --strategy: " + error.what());
  }
}

/// The scenario `command` runs: --spec FILE, else the canned --scenario
/// (`fallback` when absent) looked up by `canned`, then the --strategy,
/// --seed and --slice-kib overrides.
inject::Scenario load_scenario(std::string_view command,
                               const util::Flags& flags,
                               inject::Scenario (*canned)(const std::string&),
                               const std::string& fallback) {
  inject::Scenario scenario;
  if (flags.has("spec")) {
    std::ifstream in(flags.get("spec", ""));
    if (!in) {
      throw std::invalid_argument(std::string(command) +
                                  ": cannot open --spec file");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    scenario = inject::parse_scenario(buffer.str());
  } else {
    scenario = canned(flags.get("scenario", fallback));
  }
  if (flags.has("strategy")) scenario.strategy = strategy_flag(command, flags);
  if (flags.has("seed")) {
    scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  }
  if (flags.has("slice-kib")) scenario.slice_bytes = slice_kib_bytes(flags);
  return scenario;
}

/// Write a fault run's event log to --log-out, when given.
void write_log(std::string_view command, const util::Flags& flags,
               const inject::EventLog& log) {
  if (!flags.has("log-out")) return;
  std::ofstream out(flags.get("log-out", ""));
  if (!out) {
    throw std::invalid_argument(std::string(command) +
                                ": cannot open --log-out file");
  }
  out << log.to_json();
}

/// --`flag`'s value (`fallback` when absent), which must be one of
/// `choices`; checked before the command does any work, naming the
/// command, the flag and the value.
std::string choice_flag(std::string_view command, const util::Flags& flags,
                        const std::string& flag, const std::string& fallback,
                        std::span<const std::string_view> choices,
                        std::string_view what) {
  const std::string value = flags.get(flag, fallback);
  if (std::ranges::find(choices, value) != choices.end()) return value;
  std::string expected;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) expected += i + 1 == choices.size() ? " or " : ", ";
    expected += choices[i];
  }
  throw std::invalid_argument(std::string(command) + ": --" + flag +
                              ": unknown " + std::string(what) + " \"" +
                              value + "\" (expected " + expected + ")");
}

/// The censuses of a single-node failure, planned as the one-node case of
/// a multi-failure.
std::vector<recovery::MultiStripeCensus> single_failure_censuses(
    const cluster::Placement& placement,
    const cluster::FailureScenario& scenario) {
  return recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {scenario.failed_node}));
}

int cmd_traffic(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 100));
  const int runs = static_cast<int>(flags.get_int("runs", 50));
  const std::uint64_t chunk = chunk_bytes(flags, 4);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  util::RunningStats rr_stat, car_stat, rr_lambda, car_lambda;
  for (int run = 0; run < runs; ++run) {
    util::Rng rng(seed + static_cast<std::uint64_t>(run) * 131);
    const auto placement = cluster::Placement::random(
        cfg.topology(), cfg.k, cfg.m, stripes, rng);
    const auto scenario = cluster::inject_random_failure(placement, rng);
    const auto censuses = single_failure_censuses(placement, scenario);

    const auto rr = recovery::plan_multi_rr(placement, censuses, rng);
    const auto rr_sum =
        recovery::multi_rr_traffic(placement, rr, scenario.failed_rack);
    rr_stat.add(static_cast<double>(rr_sum.total_bytes(chunk)));
    rr_lambda.add(rr_sum.lambda());

    const auto car = recovery::balance_multi(placement, censuses, 50);
    const auto car_sum = recovery::multi_traffic(
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
  const auto result = recovery::balance_multi(
      placement, single_failure_censuses(placement, scenario), iterations);

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
  const std::uint64_t chunk = chunk_bytes(flags, 8);
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
    const auto censuses = single_failure_censuses(placement, scenario);
    const double lost = static_cast<double>(scenario.lost.size());

    const auto rr = recovery::plan_multi_rr(placement, censuses, rng);
    rr_stat.add(simnet::simulate_plan(
                    placement.topology(),
                    recovery::build_multi_rr_plan(placement, code, rr, chunk,
                                                  scenario.failed_node),
                    net)
                    .makespan_s /
                lost);
    const auto car = recovery::balance_multi(placement, censuses, 50);
    car_stat.add(simnet::simulate_plan(
                     placement.topology(),
                     recovery::build_multi_car_plan(placement, code,
                                                    car.solutions, chunk,
                                                    scenario.failed_node),
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

// Arena-backed scale path for `carctl emulate`, engaged by any scale-only
// flag (see find_command).  Populates the cluster (under --metadata-only
// only the first --sample affected stripes carry bytes), erases the failed
// nodes and runs emul::recover: the census, the solve, the template-cached
// lowering into a PlanArena and the virtual-clock replay.  The reported
// timeline is invariant in the shard count, the payload mode and
// --stream; the stripes with bytes are verified bit-exactly against their
// seeded originals.
int cmd_emulate_scale(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 20));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const bool metadata_only = flags.get_bool("metadata-only", false);
  const auto sample = static_cast<std::size_t>(flags.get_int("sample", 4));
  const bool fail_rack = flags.get_bool("fail-rack", false);
  const bool json = flags.get_bool("json", false);
  emul::RecoverOptions options;
  options.strategy = strategy_flag("emulate", flags);
  options.balance_iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 0));
  options.chunk_bytes = chunk_bytes(flags, 0.25);
  options.slice_bytes = slice_kib_bytes(flags);
  options.stream = flags.get_bool("stream", false);
  options.rr_seed = seed + 2;
  options.exec.shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  options.exec.metadata_only = metadata_only;
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

  // Stripes that carry real bytes: the first --sample affected stripes
  // under --metadata-only, every stripe otherwise (survivors of affected
  // stripes must hold bytes for the transfers to read).
  std::vector<cluster::StripeId> materialise;
  if (metadata_only) {
    materialise = emul::first_affected_stripes(placement, mf.failed_nodes,
                                               sample);
    options.exec.sampled_stripes = materialise;
  } else {
    materialise.resize(stripes);
    std::iota(materialise.begin(), materialise.end(), cluster::StripeId{0});
  }
  const auto originals = cluster.populate_sampled(
      placement, code, options.chunk_bytes, seed, materialise);
  for (const auto node : mf.failed_nodes) cluster.erase_node(node);

  const auto run = emul::recover(cluster, placement, code, mf, options);
  if (run.affected_stripes == 0) {
    std::puts("no stripe lost a chunk — nothing to recover");
    return 0;
  }
  const auto outputs = run.arena.outputs();
  const auto [expected, verified] =
      emul::verify_outputs(cluster, mf.replacement, outputs, originals);
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  const double peak_rss_mib = static_cast<double>(util::peak_rss_bytes()) /
                              static_cast<double>(util::kMiB);
  const char* strategy = recovery::to_string(options.strategy);
  const auto plan_steps =
      static_cast<unsigned long long>(run.arena.num_base_steps());

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
        strategy, stripes, topology.num_racks(), topology.num_nodes(),
        fail_rack ? "full-rack" : "single-node", run.affected_stripes,
        plan_steps, outputs.size(), metadata_only ? "true" : "false",
        options.exec.shards, run.report.wall_s,
        static_cast<unsigned long long>(run.report.cross_rack_bytes),
        verified, expected, options.exec.shards,
        options.stream ? "true" : "false", run.census_s, run.solve_s,
        run.lower_s, run.replay_s, run.recover_s, host_s, peak_rss_mib,
        run.template_stats.hits, run.template_stats.misses);
    return verified == expected && expected > 0 ? 0 : 1;
  }

  std::printf("%s | %zu racks x %zu nodes | %zu stripes | %s failure\n",
              strategy, topology.num_racks(),
              topology.num_nodes() / topology.num_racks(), stripes,
              fail_rack ? "full-rack" : "single-node");
  std::printf("  affected stripes %zu | plan steps %llu | outputs %zu\n",
              run.affected_stripes, plan_steps, outputs.size());
  std::printf("  mode %s%s | shards %zu | sampled stripes %zu\n",
              metadata_only ? "metadata-only" : "real-bytes",
              options.stream ? " (streamed)" : "", options.exec.shards,
              materialise.size());
  std::printf("  timing: scan %.3f s | plan %.3f s | lower %.3f s | replay "
              "%.3f s (templates: %zu planned, %zu reused)\n",
              run.census_s, run.solve_s, run.lower_s, run.replay_s,
              run.template_stats.misses, run.template_stats.hits);
  std::printf("  makespan %.3f s | cross-rack %s | end-to-end %.2f s | host "
              "%.2f s | peak rss %.0f MiB\n",
              run.report.wall_s,
              util::format_bytes(run.report.cross_rack_bytes).c_str(),
              run.recover_s, host_s, peak_rss_mib);
  std::printf("  verified %zu/%zu sampled outputs bit-exact\n", verified,
              expected);
  return verified == expected && expected > 0 ? 0 : 1;
}

int cmd_emulate(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 20));
  const std::uint64_t chunk = chunk_bytes(flags, 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 0));
  const std::uint64_t slice_bytes = slice_kib_bytes(flags);
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
    const auto censuses = single_failure_censuses(placement, scenario);
    recovery::RecoveryPlan plan;
    if (use_car) {
      const auto balanced = recovery::balance_multi(placement, censuses, 50);
      plan = recovery::build_multi_car_plan(placement, code,
                                            balanced.solutions, chunk,
                                            scenario.failed_node);
    } else {
      util::Rng rr_rng(seed + 2);
      const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
      plan = recovery::build_multi_rr_plan(placement, code, rr, chunk,
                                           scenario.failed_node);
    }
    if (window > 0) plan = recovery::schedule_windowed(plan, window);
    // --slice-kib > 0 lowers the plan onto a slice grid so cross-rack
    // shipping of slice s overlaps partial decoding of slice s+1; the
    // recovered bytes and traffic totals are identical either way.
    const auto report =
        slice_bytes > 0 ? cluster.execute_arena(
                              recovery::PlanArena::build(plan, slice_bytes))
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
  throw std::logic_error("inject_fault: unknown fault " + fault);
}

constexpr std::string_view kValidateStrategies[] = {"car", "rr", "weighted",
                                                    "multi", "all"};
constexpr std::string_view kPlanFaults[] = {"cycle", "dangling-dep",
                                            "byte-mismatch",
                                            "double-aggregator"};

int cmd_validate(const util::Flags& flags) {
  const auto cfg = config_from(flags);
  const auto stripes = static_cast<std::size_t>(flags.get_int("stripes", 50));
  const std::uint64_t chunk = chunk_bytes(flags, 4);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 0));
  const std::uint64_t slice_bytes = slice_kib_bytes(flags);
  const std::string strategy = choice_flag(
      "validate", flags, "strategy", "all", kValidateStrategies, "strategy");
  const std::string inject =
      flags.has("inject") ? choice_flag("validate", flags, "inject", "",
                                        kPlanFaults, "fault")
                          : "";
  const rs::Code code(cfg.k, cfg.m);

  util::Rng rng(seed);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto& topology = placement.topology();
  const auto scenario = cluster::inject_random_failure(placement, rng);
  const auto censuses = single_failure_censuses(placement, scenario);
  const auto replacement_rack = topology.rack_of(scenario.failed_node);

  struct Candidate {
    std::string name;
    recovery::RecoveryPlan plan;
    std::optional<std::uint64_t> claimed;
  };
  std::vector<Candidate> candidates;
  const bool all = strategy == "all";

  if (all || strategy == "car") {
    const auto car = recovery::balance_multi(placement, censuses, 50);
    candidates.push_back(
        {"car",
         recovery::build_multi_car_plan(placement, code, car.solutions, chunk,
                                        scenario.failed_node),
         recovery::claimed_cross_rack_chunks(car.solutions,
                                             replacement_rack)});
  }
  if (all || strategy == "rr") {
    util::Rng rr_rng(seed + 1);
    const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
    const auto summary =
        recovery::multi_rr_traffic(placement, rr, scenario.failed_rack);
    candidates.push_back(
        {"rr",
         recovery::build_multi_rr_plan(placement, code, rr, chunk,
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
         recovery::build_multi_car_plan(placement, code, weighted.solutions,
                                        chunk, scenario.failed_node),
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
      // Also check the sliced form the executors run.  PlanArena::build
      // throws on plans that break the slicing contract (e.g. an injected
      // byte-mismatch), which counts as a validation failure; the arena
      // must pass validate_arena and move exactly the plan's bytes.
      try {
        const auto arena =
            recovery::PlanArena::build(candidate.plan, slice_bytes);
        for (const std::string& error :
             recovery::validate_arena(arena, topology, options).errors) {
          report.errors.push_back("sliced: " + error);
        }
        const auto same = [&](const char* what, std::uint64_t sliced,
                              std::uint64_t base) {
          if (sliced != base) {
            report.errors.push_back(
                std::string("sliced: the arena moves ") +
                std::to_string(sliced) + " " + what + " bytes, the plan " +
                std::to_string(base));
          }
        };
        same("cross-rack", arena.cross_rack_bytes(),
             candidate.plan.cross_rack_bytes());
        same("intra-rack", arena.intra_rack_bytes(),
             candidate.plan.intra_rack_bytes());
        same("compute", arena.compute_bytes(),
             candidate.plan.compute_bytes());
        if (arena.per_rack_cross_bytes(topology) !=
            candidate.plan.per_rack_cross_bytes(topology)) {
          report.errors.push_back(
              "sliced: the arena changes the per-rack cross-rack bytes");
        }
      } catch (const std::exception& e) {
        report.errors.push_back(
            std::string("sliced: PlanArena::build rejected the plan: ") +
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
  const std::uint64_t chunk = chunk_bytes(flags, 8);
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));

  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  const auto events = workload::generate_failure_trace(
      placement.topology(), {failures, 24.0 * 3600.0}, rng);
  const simnet::NetConfig net;

  util::TextTable table({"strategy", "chunks rebuilt", "cross-rack",
                         "exposure (s)", "trace lambda"});
  for (const auto strategy :
       {recovery::Strategy::kRr, recovery::Strategy::kCar}) {
    util::Rng replay = rng.split();
    const auto report = workload::run_failure_trace(placement, events,
                                                    strategy, chunk, net,
                                                    replay);
    table.add_row({strategy == recovery::Strategy::kCar ? "CAR" : "RR",
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
                      scenario.crashes.size());
    }
    return 0;
  }

  const inject::Scenario scenario = load_scenario(
      "inject-run", flags, inject::canned_scenario, "mid-recovery-crash");
  const auto outcome = inject::run_scenario(scenario);
  const auto& run = outcome.run;
  write_log("inject-run", flags, run.log);
  if (flags.get_bool("json")) {
    std::fputs(run.log.to_json().c_str(), stdout);
  }

  std::printf("scenario %s (%s): failed node %zu%s\n", scenario.name.c_str(),
              recovery::to_string(scenario.strategy),
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

  // Every plan the run executed passed validation: the planner throws on a
  // failed report.
  const bool ok = outcome.bit_exact && outcome.chunks_expected > 0;
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
          scenario.stripes, scenario.crashes.size());
    }
    return 0;
  }

  inject::Scenario scenario =
      load_scenario("rebuild-run", flags, rebuild::canned_rebuild_scenario,
                    "rolling-two-rack");
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
  write_log("rebuild-run", flags, result.log);
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
              scenario.name.c_str(), recovery::to_string(scenario.strategy),
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
      "            --slice-kib S (also check the sliced arena the executors "
      "run)\n"
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

/// Counts a subcommand cannot do without: zero runs average nothing, zero
/// stripes leave no chunk to fail, and zero shards run no worker.
constexpr std::string_view kNonZeroFlags[] = {"stripes", "runs", "shards"};

/// Most --shards a run may ask for: each shard is one OS thread (census
/// scans, payload workers), so the count is bounded before any starts.
constexpr std::int64_t kMaxShards = 256;

/// Bounds Flags::check cannot express, checked before the command does any
/// work: the shard count's ceiling, and the sizes whose byte count must fit
/// the uint64_t it is cast to (a larger value would wrap or be undefined).
void check_bounds(std::string_view command, const util::Flags& flags) {
  const std::string who(command);
  if (flags.has("shards") && flags.get_int("shards", 1) > kMaxShards) {
    throw std::invalid_argument(who + ": --shards must be at most " +
                                std::to_string(kMaxShards) + ", got '" +
                                flags.get("shards") + "'");
  }
  flags.check_bytes_fit(command, "chunk-mib", util::kMiB);
  flags.check_bytes_fit(command, "slice-kib", util::kKiB);
}

/// `flags` plus the cluster-shape flags config_from reads.
std::vector<std::string_view> with_cluster_flags(
    std::vector<std::string_view> flags) {
  flags.insert(flags.end(),
               {"cfs", "racks", "k", "m", "num-racks", "rack-size"});
  return flags;
}

/// Flags only `emulate`'s scale path reads: any of them selects it.
constexpr const char* kScaleOnlyFlags[] = {
    "metadata-only", "shards", "fail-rack", "sample",
    "iterations",    "json",   "stream",    "strategy"};

/// The subcommand `name` names, or nullptr.  `emulate` has two entries:
/// its scale path runs when a scale-only flag is present.
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
  const bool scale =
      std::ranges::any_of(kScaleOnlyFlags,
                          [&](const char* flag) { return flags.has(flag); });
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
    flags.check(name, command->flags, kNonNegativeFlags, kNonZeroFlags);
    check_bounds(name, flags);
    return command->run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "carctl: %s\n", error.what());
    return 1;
  }
}
