// Reference timing replay: the oracle the executor differentials compare
// emul::Cluster against.
//
// Every executor walks PlanArena columns (Cluster::execute lowers its plan
// into an arena, and execute_arena drains a calendar queue).  This replay
// shares none of that machinery: it walks the materialised SlicePlan
// (to_slice_plan in slice_oracle.h) with a (start time, id) min-heap,
// reserves each transfer's links through Cluster::path, charges each
// compute bytes / virtual_gf_bps, and totals traffic bytes from the
// topology.  It moves no payload, so the per-link state it leaves on the
// cluster, its timeline, and its byte totals are what an executor run on
// an identical cluster must reproduce bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "emul/cluster.h"
#include "emul/link.h"
#include "recovery/plan_arena.h"

#include "slice_oracle.h"

namespace car::reference {

/// Replay `arena` on `cluster`'s links and clock, starting at the clock's
/// current time, and report what the executor would.
inline emul::ExecutionReport replay(emul::Cluster& cluster,
                                    const recovery::PlanArena& arena) {
  const SlicePlan plan = to_slice_plan(arena);
  const cluster::Topology& topology = cluster.topology();
  const emul::EmulConfig& config = cluster.config();
  const std::size_t n = plan.steps.size();
  emul::ExecutionReport report;
  report.per_rack_cross_bytes.assign(topology.num_racks(), 0);
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);
  for (const recovery::PlanStep& step : plan.steps) {
    pending[step.id] = step.deps.size();
    for (const std::size_t dep : step.deps) dependents[dep].push_back(step.id);
    if (step.kind != recovery::StepKind::kTransfer || step.src == step.dst) {
      continue;
    }
    const cluster::RackId src_rack = topology.rack_of(step.src);
    if (src_rack != topology.rack_of(step.dst)) {
      report.cross_rack_bytes += step.bytes;
      report.per_rack_cross_bytes[src_rack] += step.bytes;
    } else {
      report.intra_rack_bytes += step.bytes;
    }
  }

  const double t_start = cluster.clock().now();
  std::vector<double> start_at(n, t_start);
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  for (std::size_t id = 0; id < n; ++id) {
    if (pending[id] == 0) ready.emplace(t_start, id);
  }
  double end = t_start;
  while (!ready.empty()) {
    const auto [at, id] = ready.top();
    ready.pop();
    const recovery::PlanStep& step = plan.steps[id];
    double finish = at;
    if (step.kind == recovery::StepKind::kTransfer) {
      // A loopback's path has no hops: it finishes where it starts.
      finish = cluster.path(step.src, step.dst)
                   .reserve(at, step.bytes, config.page_bytes);
    } else {
      const double dt = static_cast<double>(step.bytes) / config.virtual_gf_bps;
      finish = at + dt;
      report.compute_s += dt;
      if (step.node == plan.replacement) report.replacement_compute_s += dt;
    }
    end = std::max(end, finish);
    for (const std::size_t dep : dependents[id]) {
      start_at[dep] = std::max(start_at[dep], finish);
      if (--pending[dep] == 0) ready.emplace(start_at[dep], dep);
    }
  }
  cluster.clock().advance_to(end);
  report.wall_s = end - t_start;
  return report;
}

/// Every link's next-free time and byte total, in link-id order.
struct LinkState {
  std::vector<double> next_free;
  std::vector<std::uint64_t> bytes;

  friend bool operator==(const LinkState&, const LinkState&) = default;
};

inline LinkState link_state(emul::Cluster& cluster) {
  LinkState out;
  const emul::LinkTable& links = cluster.links();
  for (emul::LinkId l = 0; l < links.size(); ++l) {
    out.next_free.push_back(links.next_free(l));
    out.bytes.push_back(links.bytes(l));
  }
  return out;
}

}  // namespace car::reference
