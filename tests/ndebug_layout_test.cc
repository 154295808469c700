// Layout agreement across NDEBUG: this translation unit is compiled with
// NDEBUG undefined (tests/CMakeLists.txt adds -UNDEBUG to it) and linked
// against the libraries, which the default RelWithDebInfo build compiles
// with NDEBUG.  The two must agree on the layout of every type defined in
// a header.  emul::CalendarQueue is embedded by value in emul::StepCore and
// so in inject::BatchDriver, whose inline accessors run here while its
// out-of-line members run in the library; a queue member declared only
// under #ifndef NDEBUG once made them disagree on the object's size, and
// driving a batch from this file crashed.  In the Debug presets no TU
// defines NDEBUG, so there the test passes without proving anything.
#ifdef NDEBUG
#error "ndebug_layout_test must be compiled with NDEBUG undefined"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "inject/event_log.h"
#include "recovery/multi.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car::inject {
namespace {

TEST(NdebugLayout, BatchDriverRunsAPlanToCompletion) {
  constexpr std::uint64_t kChunk = 4 * 1024;
  const cluster::Topology topology({4, 3, 3});
  const rs::Code code(4, 2);
  util::Rng rng(5);
  const auto placement =
      cluster::Placement::random(topology, code.k(), code.m(), 12, rng);
  const auto failure = cluster::inject_random_failure(placement, rng);
  const auto censuses = recovery::build_multi_censuses(
      placement,
      recovery::make_multi_failure(placement, {failure.failed_node}));
  const auto balanced = recovery::balance_multi(placement, censuses, 50);
  const auto plan = recovery::build_multi_car_plan(
      placement, code, balanced.solutions, kChunk, failure.failed_node);
  ASSERT_FALSE(plan.outputs.empty());

  emul::EmulConfig config;
  config.node_bps = 100e6;
  config.page_bytes = 1024;
  emul::Cluster cluster(topology, config);
  util::Rng data_rng(6);
  const auto originals = cluster.populate(placement, code, kChunk, data_rng);
  cluster.erase_node(failure.failed_node);

  EventLog log;
  BatchDriver driver(cluster, {}, {}, 7, {}, log);
  driver.admit(0, recovery::PlanArena::build(plan, 1024));
  EXPECT_EQ(driver.inflight(), 1u);
  while (driver.run_until(std::nullopt).stop != StopReason::kIdle) {
  }
  EXPECT_EQ(driver.inflight(), 0u);

  EXPECT_GT(driver.now(), 0.0);
  const emul::ExecutionReport& report = driver.report();
  EXPECT_GT(report.compute_s, 0.0);
  EXPECT_EQ(report.cross_rack_bytes, plan.cross_rack_bytes());
  EXPECT_EQ(report.intra_rack_bytes, plan.intra_rack_bytes());
  for (const auto& out : plan.outputs) {
    const rs::Chunk* chunk = cluster.find_chunk(failure.failed_node,
                                                out.stripe, out.chunk_index);
    ASSERT_NE(chunk, nullptr) << "stripe " << out.stripe;
    EXPECT_EQ(*chunk, originals[out.stripe][out.chunk_index])
        << "stripe " << out.stripe;
  }
}

}  // namespace
}  // namespace car::inject
