// Failure traces and long-horizon recovery studies.
//
// The paper evaluates one failure at a time; operators care about the
// integral: over weeks of operation, how much core-network traffic and how
// many node-hours of reduced redundancy does each recovery strategy cost?
// This module generates Poisson failure traces and replays them against a
// placement, recovering each failure with CAR or RR on the flow-level
// simulator and accumulating fleet-level metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "cluster/types.h"
#include "recovery/replan.h"
#include "simnet/config.h"
#include "util/rng.h"

namespace car::workload {

struct TraceConfig {
  std::size_t num_failures = 20;
  /// Mean inter-arrival time between node failures (exponential), seconds.
  double mean_interarrival_s = 24.0 * 3600.0;
};

struct FailureEvent {
  double time_s = 0.0;
  cluster::NodeId node = 0;
};

/// Poisson arrivals, uniformly random victim nodes.  Events are returned in
/// increasing time order.
std::vector<FailureEvent> generate_failure_trace(
    const cluster::Topology& topology, const TraceConfig& config,
    util::Rng& rng);

struct TraceReport {
  std::size_t failures_processed = 0;  // events that actually lost chunks
  std::size_t chunks_rebuilt = 0;
  std::uint64_t cross_rack_bytes = 0;
  /// Sum of simulated recovery makespans — the total time the cluster spent
  /// with reduced redundancy ("exposure").
  double total_recovery_s = 0.0;
  double max_recovery_s = 0.0;
  /// Load-balancing rate aggregated over the whole trace (per-rack traffic
  /// summed across events).
  double aggregate_lambda = 1.0;
};

/// Replay `events` against the placement: each failed node's chunks are
/// recovered (onto the same node, per the paper's methodology) with the
/// chosen strategy, timed on the flow simulator.  Events hitting nodes that
/// store nothing are skipped.  The placement is not mutated.
TraceReport run_failure_trace(const cluster::Placement& placement,
                              const std::vector<FailureEvent>& events,
                              recovery::Strategy strategy,
                              std::uint64_t chunk_size,
                              const simnet::NetConfig& net, util::Rng& rng);

}  // namespace car::workload
