#include "inject/runtime.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "recovery/multi.h"
#include "recovery/plan_template.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::inject {

namespace {

using recovery::PlanArena;

std::string describe_nodes(const std::vector<cluster::NodeId>& nodes) {
  std::string out = "{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(nodes[i]);
  }
  return out + "}";
}

double completion_ratio(std::size_t completed, std::size_t total) {
  return total == 0 ? 1.0
                    : static_cast<double>(completed) /
                          static_cast<double>(total);
}

/// The fewest completed steps whose completion ratio reaches `fraction`
/// (in [0, 1], so `total` always does).
std::size_t steps_to_reach(double fraction, std::size_t total) {
  std::size_t k = 0;
  while (k < total && completion_ratio(k, total) < fraction) ++k;
  return k;
}

/// One execute() call: a single-batch BatchDriver plus the crash
/// bookkeeping, which both live across re-plans — the timeline, stats, and
/// log carry over.
class Run {
 public:
  Run(emul::Cluster& cluster, const FaultPlan& faults,
      const RetryPolicy& policy, std::uint64_t seed, const ReplanContext& ctx,
      const DataPolicy& data)
      : cluster_(cluster),
        faults_(faults),
        seed_(seed),
        ctx_(ctx),
        replan_rng_(seed ^ 0x5bd1e9955bd1e995ULL),
        crash_fired_(ctx.crashes.size(), false),
        failed_nodes_(ctx.failed_nodes),
        t0_(cluster.clock().now()),
        driver_(cluster, faults, policy, seed, data, result_.log,
                LogFraming::kClient) {}

  RunResult run(PlanArena plan) {
    auto total = admit(plan);
    result_.log.record(t0_, EventKind::kRunStart, -1, -1,
                       static_cast<std::int64_t>(plan.replacement()), 0,
                       std::to_string(plan.num_base_steps()) + " steps, " +
                           std::to_string(plan.outputs().size()) +
                           " outputs, seed " + std::to_string(seed_) +
                           slicing_note(plan));
    log_link_faults(result_.log, faults_, t0_);

    for (;;) {
      const auto [crash, tc] = run_to_crash(total);
      if (!crash) break;
      plan = escalate(*crash, tc, plan);
      total = admit(plan);
    }

    result_.report = driver_.report();
    result_.report.wall_s = driver_.now() - t0_;
    result_.stats = driver_.stats();
    result_.stats.replans = replans_;
    result_.log.record(driver_.now(), EventKind::kRunComplete, -1, -1, -1, 0,
                       "wall " + format_seconds(result_.report.wall_s) +
                           "s, " + std::to_string(result_.stats.attempts) +
                           " transfer attempts, " +
                           std::to_string(replans_) + " re-plans");
    result_.final_plan = std::move(plan);
    return std::move(result_);
  }

 private:
  /// Admit a copy of `plan` as the batch (the driver frees its copy when
  /// the batch finishes; the run keeps `plan` as its final plan) and
  /// return its slice-step count.
  std::size_t admit(const PlanArena& plan) {
    return static_cast<std::size_t>(
        driver_.admit(0, PlanArena(plan)).num_sliced_steps());
  }

  /// Run the admitted plan (`total` slice steps) until it completes
  /// (returns no crash) or a crash trigger fires (returns the crash and its
  /// virtual time).  A time trigger fires the moment the timeline would
  /// pass it, before the event that exposed it runs; a fraction trigger
  /// fires right after the completion that reaches it — before the final
  /// publish when that completion was the last.
  std::pair<std::optional<std::size_t>, double> run_to_crash(
      std::size_t total) {
    const std::size_t base = driver_.completed_steps();
    std::optional<std::size_t> steps;
    std::optional<double> deadline;
    for (std::size_t i = 0; i < ctx_.crashes.size(); ++i) {
      const NodeCrash& crash = ctx_.crashes[i];
      if (crash_fired_[i]) continue;
      if (crash.at_fraction) {
        const std::size_t k = steps_to_reach(*crash.at_fraction, total);
        steps = std::min(steps.value_or(k), k);
      } else if (crash.at_time_s) {
        const double at = t0_ + *crash.at_time_s;
        deadline = std::min(deadline.value_or(at), at);
      }
    }
    // A fraction trigger can already be satisfied at plan start
    // (at_fraction == 0).
    if (steps == 0) return {due_fraction_crash(0, total), driver_.now()};

    const RunOutcome outcome = driver_.run_until(
        deadline, steps ? std::optional(base + *steps) : std::nullopt);
    if (outcome.stop == StopReason::kStepLimit) {
      return {due_fraction_crash(driver_.completed_steps() - base, total),
              driver_.now()};
    }
    if (outcome.stop == StopReason::kDeadline) {
      for (std::size_t i = 0; i < ctx_.crashes.size(); ++i) {
        const NodeCrash& crash = ctx_.crashes[i];
        if (crash_fired_[i] || !crash.at_time_s) continue;
        const double at = t0_ + *crash.at_time_s;
        if (at <= outcome.next_event_s) {
          return {i, std::max(at, driver_.now())};
        }
      }
    }
    CAR_CHECK_STATE(outcome.stop == StopReason::kBatchDone,
                    "inject: the step loop stopped without finishing the "
                    "plan or firing a crash");
    return {std::nullopt, driver_.now()};
  }

  /// First unfired fraction-triggered crash (declaration order) that the
  /// completion ratio satisfies.
  std::optional<std::size_t> due_fraction_crash(std::size_t completed,
                                                std::size_t total) const {
    for (std::size_t i = 0; i < ctx_.crashes.size(); ++i) {
      const NodeCrash& crash = ctx_.crashes[i];
      if (crash_fired_[i] || !crash.at_fraction) continue;
      if (completion_ratio(completed, total) >= *crash.at_fraction) return i;
    }
    return std::nullopt;
  }

  /// Crash escalation: log the crash, cancel the plan (publishing every
  /// output whose producing step delivered all slices), drop the node,
  /// re-plan the (now multi-)failure onto `plan`'s slice grid, validate,
  /// and return the arena to resume with.
  PlanArena escalate(std::size_t crash_index, double tc,
                     const PlanArena& plan) {
    const NodeCrash& crash = ctx_.crashes[crash_index];
    crash_fired_[crash_index] = true;
    driver_.advance_to(tc);
    const double now = driver_.now();

    result_.log.record(
        now, EventKind::kNodeCrash, -1, -1,
        static_cast<std::int64_t>(crash.node), 0,
        crash.at_fraction
            ? "at completion fraction " + format_seconds(*crash.at_fraction)
            : "at scheduled time " +
                  format_seconds(crash.at_time_s.value_or(0.0)));
    driver_.cancel_all();
    cluster_.drop_node(crash.node);  // CheckError if it is the replacement
    failed_nodes_.push_back(crash.node);
    result_.log.record(now, EventKind::kReplanStart, -1, -1,
                       static_cast<std::int64_t>(crash.node), 0,
                       std::string("multi-failure re-plan (") +
                           recovery::to_string(ctx_.strategy) +
                           "), failed nodes " + describe_nodes(failed_nodes_));

    const auto scenario = recovery::make_multi_failure_onto(
        *ctx_.placement, failed_nodes_, plan.replacement());
    PlanArena next = recovery::plan_multi_failure_arena(
        *ctx_.placement, *ctx_.code,
        recovery::build_multi_censuses(*ctx_.placement, scenario),
        ctx_.strategy, plan.chunk_size(), plan.slice_size(),
        plan.replacement(), replan_rng_, template_cache_);
    result_.log.record(now, EventKind::kReplanValidated, -1, -1, -1, 0,
                       std::to_string(next.num_base_steps()) + " steps, " +
                           std::to_string(next.outputs().size()) +
                           " outputs, 0 errors");
    result_.log.record(now, EventKind::kResume, -1, -1,
                       static_cast<std::int64_t>(plan.replacement()), 0,
                       "resuming recovery on the re-planned DAG");

    ++replans_;
    result_.replanned = true;
    return next;
  }

  emul::Cluster& cluster_;
  const FaultPlan& faults_;
  std::uint64_t seed_;
  const ReplanContext& ctx_;
  util::Rng replan_rng_;
  recovery::PlanTemplateCache template_cache_;
  std::vector<bool> crash_fired_;
  /// The original failures, then every crashed node in firing order.
  std::vector<cluster::NodeId> failed_nodes_;
  std::size_t replans_ = 0;
  double t0_;
  RunResult result_;
  BatchDriver driver_;  // after result_: it logs into result_.log
};

}  // namespace

ResilientRuntime::ResilientRuntime(emul::Cluster& cluster, FaultPlan faults,
                                   RetryPolicy policy, std::uint64_t seed)
    : cluster_(cluster),
      faults_(std::move(faults)),
      policy_(std::move(policy)),
      seed_(seed) {}

RunResult ResilientRuntime::execute(PlanArena plan,
                                    const ReplanContext& context,
                                    const DataPolicy& data) {
  CAR_CHECK(plan.num_base_steps() > 0,
            "inject: empty plan — nothing to recover");
  faults_.validate(cluster_.topology());
  for (const NodeCrash& crash : context.crashes) {
    crash.validate(cluster_.topology());
    CAR_CHECK(crash.node != plan.replacement(),
              "inject: a NodeCrash targets the replacement node — that is "
              "not a recoverable scenario");
  }
  if (!context.crashes.empty()) {
    CAR_CHECK(context.placement != nullptr && context.code != nullptr,
              "inject: ReplanContext has node crashes but no placement or "
              "code");
  }

  // Guards are counted per node (emul::Cluster::add_replacement_guard), so
  // this composes with guards held by outer runtimes; released on every
  // exit path.
  cluster_.add_replacement_guard(plan.replacement());
  struct Release {
    emul::Cluster& cluster;
    cluster::NodeId node;
    ~Release() { cluster.remove_replacement_guard(node); }
  } release{cluster_, plan.replacement()};
  Run run(cluster_, faults_, policy_, seed_, context, data);
  return run.run(std::move(plan));
}

}  // namespace car::inject
