// Resilient recovery-plan execution under injected faults.
//
// ResilientRuntime executes a recovery plan, lowered into a PlanArena on its
// slice grid, against emul::Cluster the way a production repair pipeline
// would run it on a misbehaving network: every transfer has a timeout,
// failed attempts (drop, corruption, timeout) are retried with seeded
// exponential backoff + jitter (util::BackoffSchedule), and when a crash of
// its ReplanContext kills a *second* node mid-plan the runtime escalates —
// cancels the outstanding steps, drops the node, re-plans the remaining
// work through recovery::plan_multi_failure_arena (census -> CAR/RR arena
// on the same slice grid -> validate_arena), and resumes on the same
// virtual timeline.
//
// The steps themselves run on BatchDriver (inject/driver.h), the
// fault-aware policy of the one step engine, with the plan as a single
// batch; the rebuild coordinator is the driver's other client.  What the
// runtime adds is its own: the replacement guard, the crash triggers (a
// time-triggered crash is a run_until deadline, a fraction-triggered one a
// step limit), the escalation, and the run's framing in the EventLog.
// A run is a pure function of (arena, FaultPlan, crashes, seed): the
// EventLog two identical runs produce is byte-identical.  Real bytes still
// move and the real GF kernels still run — recovered chunks are bit-exact,
// not simulated.
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
#include "recovery/plan_arena.h"
#include "recovery/replan.h"
#include "rs/code.h"

namespace car::inject {

/// The run's mid-recovery crashes and everything the runtime needs to
/// re-plan after one.  placement/code may be null when there are no
/// crashes.
struct ReplanContext {
  /// Crash triggers, checked with NodeCrash::validate; none may target the
  /// replacement.  Fraction triggers that tie fire in declaration order.
  std::vector<NodeCrash> crashes;
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
  /// The arena that actually finished: the re-plan after the last crash
  /// escalation (it passed validate_arena: the planner throws otherwise),
  /// or a copy of the input arena when no crash fired.
  recovery::PlanArena final_plan;
};

class ResilientRuntime {
 public:
  /// `faults` is validated against the cluster topology on execute().
  ResilientRuntime(emul::Cluster& cluster, FaultPlan faults,
                   RetryPolicy policy, std::uint64_t seed);

  /// Run `plan` to completion under the fault schedule and the context's
  /// crashes, at its slice granularity: timeouts, retries, fault matching
  /// and crash escalation act per slice, so cross-rack shipping of slice s
  /// overlaps partial decoding of slice s+1 (a one-slice grid is the
  /// chunk-granular run).
  /// At-most-once accounting holds per slice (slices of one transfer sum
  /// to exactly chunk_size), and same-seed runs stay byte-identical in the
  /// EventLog.  Crash escalations re-plan onto the same grid.  `data`
  /// selects what payload moves (see DataPolicy; the default is all real
  /// bytes).  Throws util::StateError when a transfer exhausts its retry
  /// budget, a re-plan fails validation, or a crash targets the
  /// replacement node; propagates util::CheckError from malformed
  /// arenas/faults (an empty arena has nothing to recover and is
  /// rejected).  On success every output is published on the replacement
  /// as a regular chunk replica.
  RunResult execute(recovery::PlanArena plan, const ReplanContext& context,
                    const DataPolicy& data = {});

 private:
  emul::Cluster& cluster_;
  FaultPlan faults_;
  RetryPolicy policy_;
  std::uint64_t seed_;
};

}  // namespace car::inject
