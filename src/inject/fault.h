// Deterministic, seedable fault model for the cluster emulator.
//
// A FaultPlan is a declarative schedule of the adversity the step engine
// executes, expressed in virtual seconds relative to the start of a run:
//
//   * LinkFault   — a rate window on one emulated link: factor 0 blacks the
//                   link out, 0 < factor < 1 degrades it (armed as a
//                   rate window on the cluster's emul::LinkTable; the
//                   factor must be finite);
//   * TransferFault — drop (payload lost in flight, receiver times out) or
//                   corrupt (payload arrives, checksum mismatch) applied to
//                   matching transfer attempts, optionally probabilistic;
//
// A NodeCrash (a node dies mid-recovery, at a plan-completion fraction or a
// virtual time) is not a fault but a membership event of the scenario
// (inject::Scenario::crashes): the resilient runtime fires it as a trigger
// and escalates to a recovery/multi re-plan, and the rebuild runner turns
// it into a rebuild::FailureEvent.
//
// Everything is deterministic: probabilistic transfer faults are decided by
// a hash of (seed, fault index, step id, attempt), never by execution
// order, so the same seed and FaultPlan produce the same fault sequence on
// any machine and thread schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "cluster/types.h"

namespace car::emul {
class Cluster;
}  // namespace car::emul

namespace car::inject {

/// Which emulated link a LinkFault targets.
enum class LinkSide : std::uint8_t {
  kNodeUp,    // node -> ToR access link (id = node)
  kNodeDown,  // ToR -> node access link (id = node)
  kRackUp,    // rack -> core link       (id = rack)
  kRackDown,  // core -> rack link       (id = rack)
};

[[nodiscard]] const char* to_string(LinkSide side) noexcept;

/// Scale one link's rate by `factor` during [start_s, end_s) virtual
/// seconds from run start.  factor == 0 is a blackout.
struct LinkFault {
  LinkSide side = LinkSide::kRackUp;
  std::size_t id = 0;  // node id or rack id, per side
  double start_s = 0.0;
  double end_s = 0.0;
  double factor = 1.0;
};

/// Drop or corrupt matching transfer attempts.
struct TransferFault {
  enum class Kind : std::uint8_t { kDrop, kCorrupt };
  Kind kind = Kind::kDrop;
  /// Restrict to one plan step id; nullopt matches every transfer step.
  std::optional<std::size_t> step;
  /// Restrict to these 1-based attempt numbers; empty matches every
  /// attempt.  {1} faults only the first try (the retry then succeeds).
  std::vector<std::size_t> attempts;
  /// Apply with this probability (decided deterministically per attempt
  /// from the run seed).  1.0 = always.
  double probability = 1.0;
};

[[nodiscard]] const char* to_string(TransferFault::Kind kind) noexcept;

/// Kill a node mid-recovery.  Exactly one trigger must be set.
struct NodeCrash {
  cluster::NodeId node = 0;
  /// Fires once completed steps / total steps >= at_fraction.
  std::optional<double> at_fraction;
  /// Fires once the virtual clock reaches this offset from run start.
  std::optional<double> at_time_s;

  /// Check the node id against the topology and the trigger (exactly one
  /// set, fraction in [0, 1], time finite and non-negative).  Throws
  /// util::CheckError on the first violation.
  void validate(const cluster::Topology& topology) const;
};

struct FaultPlan {
  std::vector<LinkFault> link_faults;
  std::vector<TransferFault> transfer_faults;

  /// Check every fault against the topology (ids in range, windows ordered,
  /// factors/probabilities sane).  Throws util::CheckError on the first
  /// violation.
  void validate(const cluster::Topology& topology) const;
};

/// Arm every link fault onto the cluster's links, shifted by `t0` (the
/// virtual run-start time) so relative windows land on the cluster's
/// absolute timeline.  Validates against the cluster's topology first.
void arm_link_faults(emul::Cluster& cluster, const FaultPlan& plan,
                     double t0);

/// Deterministic per-attempt fault decision: does `fault` (at index
/// `fault_index` in its plan) hit transfer step `step_id` on 1-based
/// attempt `attempt` under `seed`?  Pure function of its arguments.
[[nodiscard]] bool transfer_fault_applies(const TransferFault& fault,
                                          std::size_t fault_index,
                                          std::size_t step_id,
                                          std::size_t attempt,
                                          std::uint64_t seed);

}  // namespace car::inject
