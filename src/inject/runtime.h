// Resilient recovery-plan execution under injected faults.
//
// ResilientRuntime executes a RecoveryPlan against emul::Cluster the way a
// production repair pipeline would run it on a misbehaving network: every
// transfer has a timeout, failed attempts (drop, corruption, timeout) are
// retried with seeded exponential backoff + jitter (util::BackoffSchedule),
// and when a FaultPlan kills a *second* node mid-plan the runtime escalates
// — cancels the outstanding steps, drops the node, re-plans the remaining
// work through recovery/replan (census -> CAR/RR plan -> validate), and
// resumes on the same virtual timeline.
//
// The steps themselves run on BatchDriver (inject/driver.h), the one
// fault-aware virtual-time step loop, with the plan as a single batch; the
// rebuild coordinator is the driver's other client.  What the runtime
// adds is its own: the replacement guard, the crash triggers (a
// time-triggered crash is a run_until deadline, a fraction-triggered one a
// step limit), the escalation, and the run's framing in the EventLog.
// A run is a pure function of (plan, FaultPlan, seed): the EventLog two
// identical runs produce is byte-identical.  Real bytes still move and the
// real GF kernels still run — recovered chunks are bit-exact, not
// simulated.
//
// Accounting is at-most-once: ExecutionReport traffic counts a transfer's
// payload exactly once, no matter how many attempts it took (failed
// attempts accumulate separately in RunStats::wasted_wire_bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "recovery/plan.h"
#include "recovery/replan.h"
#include "recovery/validate.h"
#include "rs/code.h"

namespace car::inject {

/// Everything the runtime needs to re-plan after a mid-recovery crash.
/// placement/code may be null when the FaultPlan contains no node crashes.
struct ReplanContext {
  const cluster::Placement* placement = nullptr;
  const rs::Code* code = nullptr;
  /// Nodes whose data was already lost before this run (the original
  /// failure); the crashed node joins them in the multi-failure scenario.
  std::vector<cluster::NodeId> failed_nodes;
  /// Planner of the crash escalation (mirrors the original plan's).
  recovery::Strategy strategy = recovery::Strategy::kCar;
};

struct RunResult {
  emul::ExecutionReport report;  // at-most-once traffic, modelled compute
  EventLog log;
  RunStats stats;
  bool replanned = false;
  /// The plan that actually finished: the re-plan after the last crash
  /// escalation, or a copy of the input plan when no crash fired.
  recovery::RecoveryPlan final_plan;
  /// Validation report of the last re-plan (empty when !replanned).
  recovery::ValidationReport replan_validation;
};

class ResilientRuntime {
 public:
  /// `faults` is validated against the cluster topology on execute().
  ResilientRuntime(emul::Cluster& cluster, FaultPlan faults,
                   RetryPolicy policy, std::uint64_t seed);

  /// Run `plan` to completion under the fault schedule.  Throws
  /// util::StateError when a transfer exhausts its retry budget, a re-plan
  /// fails validation, or a crash targets the replacement node; propagates
  /// util::CheckError from malformed plans/faults (an empty plan has
  /// nothing to recover and is rejected).  On success every plan output is
  /// published on the replacement as a regular chunk replica.  Runs
  /// chunk-granular (a degenerate one-slice lowering of the sliced variant
  /// below — identical events, bytes, and timeline).
  RunResult execute(const recovery::RecoveryPlan& plan,
                    const ReplanContext& context);

  /// Slice-pipelined variant: lower `plan` onto a `slice_bytes` grid
  /// (recovery/slice.h) and run it with timeouts, retries, fault matching,
  /// and crash escalation at slice granularity.  Cross-rack shipping of
  /// slice s overlaps partial decoding of slice s+1 on the virtual
  /// timeline, so the makespan approaches max(transfer, compute).
  /// At-most-once accounting is preserved per slice (slices of one
  /// transfer sum to exactly chunk_size), recovered bytes are bit-identical
  /// to the chunk-granular run, and same-seed runs stay byte-identical in
  /// the EventLog.  Crash escalations re-plan at chunk granularity and
  /// re-lower the new plan onto the same grid.  `data` selects what
  /// payload moves (see DataPolicy; the default is all real bytes).
  RunResult execute_sliced(const recovery::RecoveryPlan& plan,
                           std::uint64_t slice_bytes,
                           const ReplanContext& context,
                           const DataPolicy& data = {});

 private:
  emul::Cluster& cluster_;
  FaultPlan faults_;
  RetryPolicy policy_;
  std::uint64_t seed_;
};

}  // namespace car::inject
