// BatchDriver causality: a step may start only once EVERY dependency has
// finished, not merely the dependency whose completion the loop happened
// to process last.  The timeline is rebuilt from the EventLog alone —
// transfer starts from kTransferAttempt, finishes from kTransferComplete,
// compute finishes from kComputeComplete (a compute started at
// finish - bytes / virtual_gf_bps) — and checked against the sliced plan's
// dependency lists over randomized single-failure CAR plans.
#include "inject/driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "inject/runtime.h"
#include "recovery/balancer.h"
#include "recovery/census.h"
#include "recovery/plan.h"
#include "recovery/slice.h"
#include "util/rng.h"

namespace car::inject {
namespace {

TEST(BatchDriverCausality, StepsStartAfterEveryDependencyFinishes) {
  constexpr std::uint64_t kChunk = 8 * 1024;
  const cluster::Topology topology({5, 4, 6, 5, 3});
  const rs::Code code(6, 3);
  emul::EmulConfig config;
  config.node_bps = 100e6;
  config.oversubscription = 5.0;
  config.page_bytes = 4 * 1024;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  std::size_t violations = 0;
  for (const std::uint64_t slice_bytes :
       {std::uint64_t{0}, std::uint64_t{2048}}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      util::Rng rng(seed);
      const auto placement =
          cluster::Placement::random(topology, code.k(), code.m(), 30, rng);
      cluster::NodeId failed = 0;
      do {
        failed = static_cast<cluster::NodeId>(rng.next_below(
            static_cast<std::uint64_t>(topology.num_nodes())));
      } while (placement.chunks_on_node(failed).empty());
      const auto failure = cluster::inject_node_failure(placement, failed);
      const auto censuses = recovery::build_censuses(placement, failure);
      const auto balanced =
          recovery::balance_greedy(placement, censuses, {50});
      const auto plan = recovery::build_car_plan(
          placement, code, balanced.solutions, kChunk, failed);

      // Metadata-only: the timeline is the subject, not the bytes.
      emul::Cluster cluster(topology, config);
      cluster.erase_node(failed);
      DataPolicy data;
      data.metadata_only = true;
      EventLog log;
      BatchDriver driver(cluster, {}, {}, seed, slice_bytes, data, log);
      driver.admit(0, plan);
      while (driver.run_until(std::nullopt).stop != StopReason::kIdle) {
      }

      const auto sliced =
          recovery::slice_plan(plan, slice_bytes > 0 ? slice_bytes : kChunk);
      std::vector<double> start(sliced.steps.size(), kNaN);
      std::vector<double> finish(sliced.steps.size(), kNaN);
      for (const Event& event : log.events()) {
        if (event.step < 0) continue;
        const auto id = static_cast<std::size_t>(event.step);
        if (event.kind == EventKind::kTransferAttempt) {
          start[id] = event.t;
        } else if (event.kind == EventKind::kTransferComplete) {
          finish[id] = event.t;
        } else if (event.kind == EventKind::kComputeComplete) {
          finish[id] = event.t;
          start[id] = event.t - static_cast<double>(sliced.steps[id].bytes) /
                                    config.virtual_gf_bps;
        }
      }
      for (const auto& step : sliced.steps) {
        ASSERT_FALSE(std::isnan(start[step.id])) << "seed " << seed;
        for (const std::size_t dep : step.deps) {
          ASSERT_FALSE(std::isnan(finish[dep])) << "seed " << seed;
          // Compute starts are reconstructed by subtraction; allow the
          // rounding of one add/subtract pair.
          if (start[step.id] < finish[dep] - 1e-12) {
            ++violations;
            ADD_FAILURE() << "seed " << seed << ", slice " << slice_bytes
                          << ": step " << step.id << " starts at "
                          << start[step.id] << " before dependency " << dep
                          << " finishes at " << finish[dep];
          }
        }
      }
      if (violations > 10) return;  // enough evidence; keep output short
    }
  }
}

}  // namespace
}  // namespace car::inject
