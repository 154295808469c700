#include "inject/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "emul/recover.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/plan_template.h"
#include "recovery/replan.h"
#include "rs/code.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::inject {

namespace {

[[noreturn]] void bad_spec(const std::string& line, const std::string& why) {
  throw std::invalid_argument("scenario spec: " + why + " in line: \"" +
                              line + "\"");
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream stream(s);
  std::string item;
  while (std::getline(stream, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::uint64_t parse_u64(const std::string& line, const std::string& value) {
  // std::stoull accepts a leading '-' and silently wraps it modulo 2^64
  // ("seed -1" used to parse as 18446744073709551615); require plain
  // decimal digits so negatives are a diagnostic, not a wrap.
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    bad_spec(line, "expected a non-negative integer, got \"" + value + "\"");
  }
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) bad_spec(line, "trailing junk in number");
    return v;
  } catch (const std::invalid_argument&) {
    bad_spec(line, "expected an integer, got \"" + value + "\"");
  } catch (const std::out_of_range&) {
    bad_spec(line, "integer out of range");
  }
}

/// The largest KiB count whose byte count fits a uint64_t.
constexpr std::uint64_t kMaxKiB =
    std::numeric_limits<std::uint64_t>::max() / util::kKiB;

/// parse_u64 with an inclusive range check, diagnosing the offending line.
std::uint64_t parse_u64_in(const std::string& line, const std::string& value,
                           std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t v = parse_u64(line, value);
  if (v < lo || v > hi) {
    bad_spec(line, "value " + value + " out of range [" + std::to_string(lo) +
                       ", " + std::to_string(hi) + "]");
  }
  return v;
}

double parse_f64(const std::string& line, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) bad_spec(line, "trailing junk in number");
    return v;
  } catch (const std::invalid_argument&) {
    bad_spec(line, "expected a number, got \"" + value + "\"");
  } catch (const std::out_of_range&) {
    bad_spec(line, "number out of range");
  }
}

/// "key=value" pairs of a `fault` line, order-preserving.
std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& line, const std::vector<std::string>& tokens,
    std::size_t first) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == tokens[i].size()) {
      bad_spec(line, "expected key=value, got \"" + tokens[i] + "\"");
    }
    out.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
  return out;
}

LinkSide parse_side(const std::string& line, const std::string& value) {
  if (value == "node-up") return LinkSide::kNodeUp;
  if (value == "node-down") return LinkSide::kNodeDown;
  if (value == "rack-up") return LinkSide::kRackUp;
  if (value == "rack-down") return LinkSide::kRackDown;
  bad_spec(line, "unknown link side \"" + value + "\"");
}

void parse_fault(const std::string& line,
                 const std::vector<std::string>& tokens, FaultPlan& plan) {
  if (tokens.size() < 2) bad_spec(line, "fault needs a type");
  const std::string& type = tokens[1];
  const auto kv = parse_kv(line, tokens, 2);

  if (type == "link") {
    LinkFault fault;
    for (const auto& [key, value] : kv) {
      if (key == "side") {
        fault.side = parse_side(line, value);
      } else if (key == "id") {
        fault.id = parse_u64(line, value);
      } else if (key == "start") {
        fault.start_s = parse_f64(line, value);
      } else if (key == "end") {
        fault.end_s = parse_f64(line, value);
      } else if (key == "factor") {
        fault.factor = parse_f64(line, value);
      } else {
        bad_spec(line, "unknown link-fault key \"" + key + "\"");
      }
    }
    plan.link_faults.push_back(fault);
    return;
  }

  if (type == "drop" || type == "corrupt") {
    TransferFault fault;
    fault.kind = type == "drop" ? TransferFault::Kind::kDrop
                                : TransferFault::Kind::kCorrupt;
    for (const auto& [key, value] : kv) {
      if (key == "step") {
        fault.step = parse_u64(line, value);
      } else if (key == "attempts") {
        for (const auto& a : split(value, ',')) {
          fault.attempts.push_back(parse_u64(line, a));
        }
      } else if (key == "prob") {
        fault.probability = parse_f64(line, value);
      } else {
        bad_spec(line, "unknown transfer-fault key \"" + key + "\"");
      }
    }
    plan.transfer_faults.push_back(std::move(fault));
    return;
  }

  if (type == "crash") {
    NodeCrash crash;
    for (const auto& [key, value] : kv) {
      if (key == "node") {
        crash.node = static_cast<cluster::NodeId>(parse_u64(line, value));
      } else if (key == "at-fraction") {
        crash.at_fraction = parse_f64(line, value);
      } else if (key == "at-time") {
        crash.at_time_s = parse_f64(line, value);
      } else {
        bad_spec(line, "unknown crash key \"" + key + "\"");
      }
    }
    plan.node_crashes.push_back(crash);
    return;
  }

  bad_spec(line, "unknown fault type \"" + type + "\"");
}

// --- canned scenario specs --------------------------------------------------
//
// Embedded as text and parsed through parse_scenario, so the spec grammar
// itself is covered by every test/CI run that touches a canned scenario.

constexpr const char* kLinkFlap = R"(# A core link flaps: two blackouts on rack 0's uplink while recovery runs.
# Transfers that straddle a blackout exceed the 0.1 s timeout, retry with
# backoff, and complete once the link returns.
name link-flap
racks 4,3,3
k 4
m 2
stripes 12
chunk-kib 64
page-kib 16
seed 11
strategy car
node-mbps 100
oversub 5
timeout 0.1
max-attempts 8
backoff-base 0.04
backoff-factor 2
backoff-cap 0.4
backoff-jitter 0.2
fault link side=rack-up id=0 start=0.0 end=0.3 factor=0
fault link side=rack-up id=0 start=0.5 end=0.65 factor=0
)";

constexpr const char* kMidRecoveryCrash = R"(# The acceptance scenario: node 2 fails, recovery starts, and node 5 dies
# once 40% of the plan has completed.  The runtime cancels the remaining
# steps, re-plans the two-node failure via recovery/multi, re-validates, and
# finishes with bit-exact chunks for every lost chunk of both nodes.
name mid-recovery-crash
racks 4,3,3
k 4
m 2
stripes 12
chunk-kib 64
page-kib 16
seed 7
strategy car
fail-node 2
node-mbps 100
oversub 5
timeout 0.5
max-attempts 6
backoff-base 0.02
backoff-factor 2
backoff-cap 0.25
backoff-jitter 0.2
fault crash node=5 at-fraction=0.4
)";

constexpr const char* kSlowStragglerRack = R"(# Rack 2's core links crawl at 10% for the first two seconds and a third of
# first attempts drop: recovery slows and retries but stays correct.
name slow-straggler-rack
racks 4,3,3
k 4
m 2
stripes 12
chunk-kib 64
page-kib 16
seed 23
strategy car
node-mbps 100
oversub 5
timeout 0.25
max-attempts 8
backoff-base 0.03
backoff-factor 2
backoff-cap 0.3
backoff-jitter 0.2
fault link side=rack-up id=2 start=0.0 end=2.0 factor=0.1
fault link side=rack-down id=2 start=0.0 end=2.0 factor=0.1
fault drop attempts=1 prob=0.33
)";

constexpr const char* kDegradedCore = R"(# Every core link (both directions) at half rate for the whole run — the
# EXPERIMENTS.md setting for CAR vs RR under a degraded core, scaled down
# for test speed (examples/specs/degraded-core-fig9.spec is the full-size
# fig9 variant).
name degraded-core
racks 4,3,3
k 4
m 2
stripes 12
chunk-kib 64
page-kib 16
seed 7
strategy car
node-mbps 100
oversub 5
timeout 0.5
max-attempts 6
backoff-base 0.02
backoff-factor 2
backoff-cap 0.25
backoff-jitter 0.2
fault link side=rack-up id=0 start=0.0 end=30.0 factor=0.5
fault link side=rack-up id=1 start=0.0 end=30.0 factor=0.5
fault link side=rack-up id=2 start=0.0 end=30.0 factor=0.5
fault link side=rack-down id=0 start=0.0 end=30.0 factor=0.5
fault link side=rack-down id=1 start=0.0 end=30.0 factor=0.5
fault link side=rack-down id=2 start=0.0 end=30.0 factor=0.5
)";

struct CannedEntry {
  const char* name;
  const char* spec;
};

constexpr CannedEntry kCanned[] = {
    {"link-flap", kLinkFlap},
    {"mid-recovery-crash", kMidRecoveryCrash},
    {"slow-straggler-rack", kSlowStragglerRack},
    {"degraded-core", kDegradedCore},
};

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  std::set<std::string> seen;
  // Crash bookkeeping for the duplicate/conflict diagnostics: every node
  // named by a `crash` line, a `fault crash` line, or `fail-node` may
  // appear exactly once across all three forms — a node cannot die twice,
  // and the initially failed node cannot also crash later.
  std::set<cluster::NodeId> crashed_nodes;
  std::optional<double> last_crash_at;
  const auto note_crash_node = [&](const std::string& line,
                                   cluster::NodeId node) {
    if (scenario.fail_node && *scenario.fail_node == node) {
      bad_spec(line, "node " + std::to_string(node) +
                         " is already the initial failure (fail-node)");
    }
    if (!crashed_nodes.insert(node).second) {
      bad_spec(line, "duplicate crash for node " + std::to_string(node));
    }
  };
  std::stringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    const auto hash = raw.find('#');
    const std::string line = trim(hash == std::string::npos
                                      ? raw
                                      : raw.substr(0, hash));
    if (line.empty()) continue;
    const auto tokens = split(line, ' ');
    const std::string& key = tokens.front();

    if (key == "fault") {
      parse_fault(line, tokens, scenario.faults);
      if (tokens.size() >= 2 && tokens[1] == "crash") {
        note_crash_node(line, scenario.faults.node_crashes.back().node);
      }
      continue;
    }
    if (key == "crash") {
      // Rolling-failure event: `crash node=N at=T`, repeatable, in
      // non-decreasing time order.
      NodeCrash crash;
      bool have_node = false;
      bool have_at = false;
      for (const auto& [k, v] : parse_kv(line, tokens, 1)) {
        if (k == "node") {
          crash.node = static_cast<cluster::NodeId>(parse_u64(line, v));
          have_node = true;
        } else if (k == "at") {
          const double at = parse_f64(line, v);
          if (!std::isfinite(at)) {
            bad_spec(line, "crash time must be finite, got \"" + v + "\"");
          }
          if (at < 0) bad_spec(line, "crash time must be >= 0");
          crash.at_time_s = at;
          have_at = true;
        } else {
          bad_spec(line, "unknown crash key \"" + k + "\"");
        }
      }
      if (!have_node || !have_at) bad_spec(line, "crash needs node= and at=");
      if (last_crash_at && *crash.at_time_s < *last_crash_at) {
        bad_spec(line, "crash events must be listed in non-decreasing time "
                       "order (previous event at " +
                           std::to_string(*last_crash_at) + "s)");
      }
      last_crash_at = *crash.at_time_s;
      note_crash_node(line, crash.node);
      scenario.faults.node_crashes.push_back(crash);
      continue;
    }
    if (tokens.size() != 2) bad_spec(line, "expected \"key value\"");
    // Scalar keys must appear at most once: a silent last-wins overwrite
    // turns a typo'd spec into a quietly different experiment.  (fault
    // lines legitimately repeat and are handled above.)
    if (!seen.insert(key).second) {
      bad_spec(line, "duplicate key \"" + key + "\"");
    }
    const std::string& value = tokens[1];

    if (key == "name") {
      scenario.name = value;
    } else if (key == "racks") {
      scenario.racks.clear();
      for (const auto& r : split(value, ',')) {
        scenario.racks.push_back(parse_u64(line, r));
      }
      if (scenario.racks.empty()) bad_spec(line, "racks needs >= 1 entry");
    } else if (key == "k") {
      scenario.k = parse_u64(line, value);
    } else if (key == "m") {
      scenario.m = parse_u64(line, value);
    } else if (key == "stripes") {
      scenario.stripes = parse_u64(line, value);
    } else if (key == "chunk-kib") {
      scenario.chunk_bytes = parse_u64_in(line, value, 1, kMaxKiB) * util::kKiB;
    } else if (key == "page-kib") {
      scenario.page_bytes = parse_u64_in(line, value, 1, kMaxKiB) * util::kKiB;
    } else if (key == "slice-kib") {
      // 0 would divide-by-zero the slice grid and anything above 1 GiB is
      // certainly a unit mistake (the value is KiB, not bytes).
      scenario.slice_bytes =
          parse_u64_in(line, value, 1, std::uint64_t{1} << 20) * util::kKiB;
    } else if (key == "seed") {
      scenario.seed = parse_u64(line, value);
    } else if (key == "strategy") {
      try {
        scenario.strategy = recovery::parse_strategy(value);
      } catch (const std::invalid_argument& error) {
        bad_spec(line, error.what());
      }
    } else if (key == "fail-node") {
      scenario.fail_node = static_cast<cluster::NodeId>(parse_u64(line, value));
      if (crashed_nodes.contains(*scenario.fail_node)) {
        bad_spec(line, "node " + value +
                           " already crashes later in the scenario (crash/"
                           "fault crash)");
      }
    } else if (key == "batch-stripes") {
      scenario.rebuild_batch_stripes = parse_u64_in(line, value, 1, 1 << 20);
    } else if (key == "concurrency") {
      scenario.rebuild_concurrency = parse_u64_in(line, value, 1, 64);
    } else if (key == "data-mode") {
      if (value != "real" && value != "metadata") {
        bad_spec(line, "data-mode must be real or metadata");
      }
      scenario.data_mode = value;
    } else if (key == "sample") {
      scenario.sample_stripes = parse_u64_in(line, value, 0, 1 << 20);
    } else if (key == "node-mbps") {
      scenario.node_bps = parse_f64(line, value) * 1e6;
    } else if (key == "oversub") {
      scenario.oversubscription = parse_f64(line, value);
    } else if (key == "timeout") {
      scenario.retry.transfer_timeout_s = parse_f64(line, value);
    } else if (key == "max-attempts") {
      scenario.retry.max_attempts = parse_u64(line, value);
    } else if (key == "backoff-base" || key == "backoff-factor" ||
               key == "backoff-cap" || key == "backoff-jitter") {
      const auto& old = scenario.retry.backoff;
      const double v = parse_f64(line, value);
      scenario.retry.backoff = util::BackoffSchedule(
          key == "backoff-base" ? v : old.base_s(),
          key == "backoff-factor" ? v : old.factor(),
          key == "backoff-cap" ? v : old.cap_s(),
          key == "backoff-jitter" ? v : old.jitter());
    } else {
      bad_spec(line, "unknown key \"" + key + "\"");
    }
  }
  return scenario;
}

std::vector<std::string> canned_scenario_names() {
  std::vector<std::string> names;
  for (const auto& entry : kCanned) names.emplace_back(entry.name);
  return names;
}

Scenario canned_scenario(const std::string& name) {
  std::string have;
  for (const auto& entry : kCanned) {
    if (name == entry.name) return parse_scenario(entry.spec);
    have += (have.empty() ? "" : ", ") + std::string(entry.name);
  }
  throw std::invalid_argument("unknown canned scenario \"" + name +
                              "\" (have: " + have + ")");
}

ScenarioOutcome run_scenario(const Scenario& scenario) {
  const cluster::Topology topology(scenario.racks);
  const rs::Code code(scenario.k, scenario.m);

  emul::EmulConfig config;
  config.node_bps = scenario.node_bps;
  config.oversubscription = scenario.oversubscription;
  config.page_bytes = scenario.page_bytes;
  emul::Cluster cluster(topology, config);

  const bool seeded_data = scenario.data_mode.has_value();
  const bool metadata = seeded_data && *scenario.data_mode == "metadata";

  util::Rng rng(scenario.seed);
  const auto placement = cluster::Placement::random(
      topology, scenario.k, scenario.m, scenario.stripes, rng);

  // Classic flow: one shared rng stream populates everything before the
  // failure is drawn.  Seeded-data flow (`data-mode`): the failure is drawn
  // from the same stream *without* populating first, so "real" and
  // "metadata" runs of one spec agree on placement, failure, and plan;
  // stripes are materialised further down from per-stripe seeds once the
  // plan says which ones matter.
  emul::Originals originals;
  if (!seeded_data) {
    auto all = cluster.populate(placement, code, scenario.chunk_bytes, rng);
    originals.reserve(all.size());
    for (cluster::StripeId s = 0; s < all.size(); ++s) {
      originals.emplace(s, std::move(all[s]));
    }
  }

  const auto failure =
      scenario.fail_node
          ? cluster::inject_node_failure(placement, *scenario.fail_node)
          : cluster::inject_random_failure(placement, rng);
  if (!seeded_data) cluster.erase_node(failure.failed_node);

  util::Rng rr_rng(scenario.seed + 1);
  recovery::PlanTemplateCache template_cache;
  recovery::MultiReplan initial = recovery::plan_multi_failure(
      placement, code,
      recovery::build_multi_censuses(
          placement,
          recovery::make_multi_failure(placement, {failure.failed_node})),
      scenario.strategy, scenario.chunk_bytes, failure.failed_node, rr_rng,
      template_cache);
  const recovery::RecoveryPlan& plan = initial.plan;

  ScenarioOutcome outcome;
  outcome.failed_node = failure.failed_node;
  outcome.initial_validation = std::move(initial.validation);

  DataPolicy data;
  if (seeded_data) {
    // Materialise stripes from per-stripe seeds: all of them under
    // data-mode real, the first `sample` distinct output stripes under
    // data-mode metadata.
    std::vector<cluster::StripeId> materialise;
    if (metadata) {
      for (const auto& out : plan.outputs) {
        if (std::find(materialise.begin(), materialise.end(), out.stripe) ==
            materialise.end()) {
          materialise.push_back(out.stripe);
          if (materialise.size() >= scenario.sample_stripes) break;
        }
      }
      data.metadata_only = true;
      data.sampled_stripes = materialise;
    } else {
      materialise.resize(scenario.stripes);
      std::iota(materialise.begin(), materialise.end(), 0);
    }
    originals = cluster.populate_sampled(placement, code,
                                         scenario.chunk_bytes, scenario.seed,
                                         materialise);
    cluster.erase_node(failure.failed_node);
  }

  ResilientRuntime runtime(cluster, scenario.faults, scenario.retry,
                           scenario.seed);
  ReplanContext context;
  context.placement = &placement;
  context.code = &code;
  context.failed_nodes = {failure.failed_node};
  context.strategy = scenario.strategy;
  outcome.run = runtime.execute_sliced(
      plan,
      scenario.slice_bytes > 0 ? scenario.slice_bytes
                               : std::max<std::uint64_t>(plan.chunk_size, 1),
      context, data);

  // Bit-exactness: every output of the plan that actually finished (the
  // re-plan after a crash, otherwise the original) must match the bytes the
  // failed node(s) held before the run.  Metadata-only stripes carry no
  // bytes — they are measured, not checked.
  outcome.stripes_materialised = originals.size();
  const auto counts =
      emul::verify_outputs(cluster, outcome.run.final_plan.replacement,
                           outcome.run.final_plan.outputs, originals);
  outcome.chunks_expected = counts.expected;
  outcome.chunks_verified = counts.verified;
  outcome.bit_exact = outcome.chunks_verified == outcome.chunks_expected;
  return outcome;
}

}  // namespace car::inject
