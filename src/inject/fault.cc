#include "inject/fault.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "emul/cluster.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::inject {

const char* to_string(LinkSide side) noexcept {
  switch (side) {
    case LinkSide::kNodeUp:
      return "node-up";
    case LinkSide::kNodeDown:
      return "node-down";
    case LinkSide::kRackUp:
      return "rack-up";
    case LinkSide::kRackDown:
      return "rack-down";
  }
  return "?";
}

const char* to_string(TransferFault::Kind kind) noexcept {
  return kind == TransferFault::Kind::kDrop ? "drop" : "corrupt";
}

void FaultPlan::validate(const cluster::Topology& topology) const {
  for (const auto& fault : link_faults) {
    const bool node_side =
        fault.side == LinkSide::kNodeUp || fault.side == LinkSide::kNodeDown;
    const std::size_t bound =
        node_side ? topology.num_nodes() : topology.num_racks();
    CAR_CHECK_LT(fault.id, bound, "LinkFault: link id out of range");
    CAR_CHECK(std::isfinite(fault.start_s) && std::isfinite(fault.end_s),
              "LinkFault: window bounds must be finite");
    CAR_CHECK(fault.start_s >= 0.0 && fault.start_s < fault.end_s,
              "LinkFault: requires 0 <= start < end");
    CAR_CHECK(std::isfinite(fault.factor) && fault.factor >= 0.0,
              "LinkFault: factor must be finite and >= 0, got " +
                  std::to_string(fault.factor));
  }
  for (const auto& fault : transfer_faults) {
    CAR_CHECK(fault.probability > 0.0 && fault.probability <= 1.0,
              "TransferFault: probability must be in (0, 1]");
    for (const std::size_t attempt : fault.attempts) {
      CAR_CHECK(attempt > 0, "TransferFault: attempts are 1-based");
    }
  }
}

void NodeCrash::validate(const cluster::Topology& topology) const {
  CAR_CHECK_LT(node, topology.num_nodes(), "NodeCrash: node id out of range");
  CAR_CHECK(at_fraction.has_value() != at_time_s.has_value(),
            "NodeCrash: exactly one of at_fraction / at_time_s must be set");
  if (at_fraction) {
    CAR_CHECK(*at_fraction >= 0.0 && *at_fraction <= 1.0,
              "NodeCrash: at_fraction must be in [0, 1]");
  }
  if (at_time_s) {
    CAR_CHECK(std::isfinite(*at_time_s) && *at_time_s >= 0.0,
              "NodeCrash: at_time_s must be finite and non-negative");
  }
}

void arm_link_faults(emul::Cluster& cluster, const FaultPlan& plan,
                     double t0) {
  plan.validate(cluster.topology());
  for (const auto& fault : plan.link_faults) {
    emul::LinkId link = 0;
    switch (fault.side) {
      case LinkSide::kNodeUp:
        link = cluster.node_up_link(fault.id);
        break;
      case LinkSide::kNodeDown:
        link = cluster.node_down_link(fault.id);
        break;
      case LinkSide::kRackUp:
        link = cluster.rack_up_link(fault.id);
        break;
      case LinkSide::kRackDown:
        link = cluster.rack_down_link(fault.id);
        break;
    }
    cluster.links().add_rate_window(link, t0 + fault.start_s,
                                    t0 + fault.end_s, fault.factor);
  }
}

bool transfer_fault_applies(const TransferFault& fault,
                            std::size_t fault_index, std::size_t step_id,
                            std::size_t attempt, std::uint64_t seed) {
  if (fault.step && *fault.step != step_id) return false;
  if (!fault.attempts.empty() &&
      std::find(fault.attempts.begin(), fault.attempts.end(), attempt) ==
          fault.attempts.end()) {
    return false;
  }
  if (fault.probability >= 1.0) return true;
  // Order-independent determinism: the coin flip is a pure function of
  // (seed, fault, step, attempt), so it does not matter when — or on which
  // thread — the attempt happens to run.
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (fault_index + 1)) ^
                (0xc2b2ae3d27d4eb4fULL * (step_id + 1)) ^
                (0x165667b19e3779f9ULL * (attempt + 1)));
  return rng.next_double() < fault.probability;
}

}  // namespace car::inject
