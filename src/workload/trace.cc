#include "workload/trace.h"

#include <algorithm>
#include <cmath>

#include "recovery/multi.h"
#include "rs/code.h"
#include "simnet/flowsim.h"
#include "util/check.h"

namespace car::workload {

std::vector<FailureEvent> generate_failure_trace(
    const cluster::Topology& topology, const TraceConfig& config,
    util::Rng& rng) {
  CAR_CHECK(config.mean_interarrival_s > 0,
            "generate_failure_trace: mean inter-arrival must be positive");
  std::vector<FailureEvent> events;
  events.reserve(config.num_failures);
  double clock = 0.0;
  for (std::size_t i = 0; i < config.num_failures; ++i) {
    // Exponential inter-arrival via inverse transform; guard the log.
    const double u = std::max(rng.next_double(), 1e-12);
    clock += -config.mean_interarrival_s * std::log(u);
    const auto node = static_cast<cluster::NodeId>(
        rng.next_below(topology.num_nodes()));
    events.push_back({clock, node});
  }
  return events;
}

TraceReport run_failure_trace(const cluster::Placement& placement,
                              const std::vector<FailureEvent>& events,
                              recovery::Strategy strategy,
                              std::uint64_t chunk_size,
                              const simnet::NetConfig& net, util::Rng& rng) {
  CAR_CHECK(chunk_size > 0, "run_failure_trace: chunk_size must be > 0");
  const rs::Code code(placement.k(), placement.m());
  TraceReport report;
  std::vector<std::size_t> per_rack(placement.topology().num_racks(), 0);
  std::size_t total_cross_chunks = 0;

  for (const FailureEvent& event : events) {
    const auto failure = recovery::make_multi_failure(placement, {event.node});
    const auto censuses = recovery::build_multi_censuses(placement, failure);
    if (censuses.empty()) continue;

    recovery::RecoveryPlan plan;
    recovery::TrafficSummary summary;
    if (strategy == recovery::Strategy::kCar) {
      const auto balanced = recovery::balance_multi(placement, censuses, 50);
      summary = recovery::multi_traffic(balanced.solutions,
                                        placement.topology().num_racks(),
                                        failure.replacement_rack);
      plan = recovery::build_multi_car_plan(placement, code, balanced.solutions,
                                            chunk_size, event.node);
    } else {
      const auto rr = recovery::plan_multi_rr(placement, censuses, rng);
      summary =
          recovery::multi_rr_traffic(placement, rr, failure.replacement_rack);
      plan = recovery::build_multi_rr_plan(placement, code, rr, chunk_size,
                                           event.node);
    }

    const auto sim = simnet::simulate_plan(placement.topology(), plan, net);

    ++report.failures_processed;
    report.chunks_rebuilt += censuses.size();
    report.cross_rack_bytes += plan.cross_rack_bytes();
    report.total_recovery_s += sim.makespan_s;
    report.max_recovery_s = std::max(report.max_recovery_s, sim.makespan_s);
    for (cluster::RackId i = 0; i < per_rack.size(); ++i) {
      per_rack[i] += summary.per_rack_chunks[i];
      total_cross_chunks += summary.per_rack_chunks[i];
    }
  }

  // Aggregate lambda over the whole trace.  Every rack hosts failures at
  // some point, so average over all racks rather than excluding one.
  if (total_cross_chunks > 0 && per_rack.size() > 1) {
    const std::size_t max =
        *std::max_element(per_rack.begin(), per_rack.end());
    const double avg = static_cast<double>(total_cross_chunks) /
                       static_cast<double>(per_rack.size());
    report.aggregate_lambda = static_cast<double>(max) / avg;
  }
  return report;
}

}  // namespace car::workload
