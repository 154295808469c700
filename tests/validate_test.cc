#include "recovery/validate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "recovery/degraded.h"
#include "recovery/metrics.h"
#include "recovery/plan_arena.h"
#include "recovery/plan_template.h"
#include "recovery/scheduler.h"
#include "recovery/weighted.h"

namespace car::recovery {

/// Column access for building malformed arenas (PlanArena befriends it).
struct PlanArenaTestPeer {
  static void set_dst(PlanArena& arena, std::uint64_t row,
                      cluster::NodeId node) {
    arena.endpoint_b_[row] = static_cast<std::uint32_t>(node);
  }
  static void set_node(PlanArena& arena, std::uint64_t row,
                       cluster::NodeId node) {
    arena.endpoint_a_[row] = static_cast<std::uint32_t>(node);
  }
  static void set_first_dep(PlanArena& arena, std::uint64_t row,
                            std::uint64_t dep) {
    arena.dep_entries_[arena.dep_off_[row]] = dep;
  }
  static void set_chunk_size(PlanArena& arena, std::uint64_t bytes) {
    arena.chunk_size_ = bytes;
  }
  static void add_output(PlanArena& arena, const RecoveryPlan::Output& out) {
    arena.outputs_.push_back(out);
  }
};

namespace {

using cluster::Placement;
using cluster::Topology;

constexpr std::uint64_t kChunk = 1 << 20;

struct Fixture {
  cluster::CfsConfig cfg;
  Placement placement;
  rs::Code code;
  cluster::FailureScenario scenario;
  std::vector<MultiStripeCensus> censuses;

  explicit Fixture(int cfg_index, std::uint64_t seed, std::size_t stripes = 25)
      : cfg(cluster::paper_configs()[cfg_index]),
        placement(make_placement(cfg, stripes, seed)),
        code(cfg.k, cfg.m) {
    util::Rng rng(seed + 1);
    scenario = cluster::inject_random_failure(placement, rng);
    censuses = build_multi_censuses(
        placement, make_multi_failure(placement, {scenario.failed_node}));
  }

  static Placement make_placement(const cluster::CfsConfig& cfg,
                                  std::size_t stripes, std::uint64_t seed) {
    util::Rng rng(seed);
    return Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);
  }

  [[nodiscard]] ValidateOptions options() const {
    ValidateOptions opts;
    opts.placement = &placement;
    return opts;
  }
};

void expect_valid(const ValidationReport& report) {
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- acceptance: every planner-emitted plan validates --------------------

class PlannerSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlannerSweep, CarPlanValidatesWithClaimedTraffic) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto balanced = balance_multi(f.placement, f.censuses, 50);
  const auto plan = build_multi_car_plan(f.placement, f.code, balanced.solutions,
                                         kChunk, f.scenario.failed_node);
  auto opts = f.options();
  opts.expected_cross_rack_chunks = claimed_cross_rack_chunks(
      balanced.solutions,
      f.placement.topology().rack_of(f.scenario.failed_node));
  expect_valid(validate_plan(plan, f.placement.topology(), opts));
}

TEST_P(PlannerSweep, RrPlanValidatesWithClaimedTraffic) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  util::Rng rng(99);
  const auto rr = plan_multi_rr(f.placement, f.censuses, rng);
  const auto plan =
      build_multi_rr_plan(f.placement, f.code, rr, kChunk, f.scenario.failed_node);
  auto opts = f.options();
  opts.expected_cross_rack_chunks =
      multi_rr_traffic(f.placement, rr, f.scenario.failed_rack).total_chunks();
  expect_valid(validate_plan(plan, f.placement.topology(), opts));
}

TEST_P(PlannerSweep, WeightedPlanValidates) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  std::vector<double> bandwidth(f.placement.topology().num_racks(), 1.0);
  for (std::size_t i = 0; i < bandwidth.size(); ++i) {
    bandwidth[i] += static_cast<double>(i % 2);
  }
  const auto weighted = balance_weighted(f.placement, f.censuses, bandwidth);
  const auto plan = build_multi_car_plan(f.placement, f.code, weighted.solutions,
                                         kChunk, f.scenario.failed_node);
  auto opts = f.options();
  opts.expected_cross_rack_chunks = claimed_cross_rack_chunks(
      weighted.solutions,
      f.placement.topology().rack_of(f.scenario.failed_node));
  expect_valid(validate_plan(plan, f.placement.topology(), opts));
}

TEST_P(PlannerSweep, MultiFailurePlanValidates) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto& topology = f.placement.topology();
  const auto multi_scenario = make_multi_failure(
      f.placement, {f.scenario.failed_node,
                    (f.scenario.failed_node + 1) % topology.num_nodes()});
  const auto censuses = build_multi_censuses(f.placement, multi_scenario);
  const auto balanced = balance_multi(f.placement, censuses);
  const auto plan =
      build_multi_car_plan(f.placement, f.code, balanced.solutions, kChunk,
                           multi_scenario.replacement);
  auto opts = f.options();
  opts.expected_cross_rack_chunks = claimed_cross_rack_chunks(
      balanced.solutions, multi_scenario.replacement_rack);
  expect_valid(validate_plan(plan, topology, opts));
}

TEST_P(PlannerSweep, MultiRrPlanValidates) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto& topology = f.placement.topology();
  const auto multi_scenario = make_multi_failure(
      f.placement, {f.scenario.failed_node,
                    (f.scenario.failed_node + 2) % topology.num_nodes()});
  const auto censuses = build_multi_censuses(f.placement, multi_scenario);
  util::Rng rng(5);
  const auto rr = plan_multi_rr(f.placement, censuses, rng);
  const auto plan = build_multi_rr_plan(f.placement, f.code, rr, kChunk,
                                        multi_scenario.replacement);
  expect_valid(validate_plan(plan, topology, f.options()));
}

TEST_P(PlannerSweep, DegradedReadPlansValidate) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  // Read the first lost chunk from a surviving node in another rack.
  const auto& lost = f.scenario.lost.front();
  cluster::NodeId reader = 0;
  while (reader == f.scenario.failed_node) ++reader;
  const DegradedReadRequest request{lost.stripe, lost.chunk_index, reader};
  const auto car_plan =
      plan_degraded_read_car(f.placement, f.code, request, kChunk);
  expect_valid(validate_plan(car_plan, f.placement.topology(), f.options()));

  util::Rng rng(11);
  const auto direct_plan =
      plan_degraded_read_direct(f.placement, f.code, request, kChunk, rng);
  expect_valid(
      validate_plan(direct_plan, f.placement.topology(), f.options()));
}

TEST_P(PlannerSweep, WindowedScheduleStaysValid) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto balanced = balance_multi(f.placement, f.censuses, 50);
  const auto plan = build_multi_car_plan(f.placement, f.code, balanced.solutions,
                                         kChunk, f.scenario.failed_node);
  for (const std::size_t window : {1UL, 2UL, 4UL}) {
    expect_valid(validate_plan(schedule_windowed(plan, window),
                               f.placement.topology(), f.options()));
  }
}

// --- acceptance: every arena the template builders emit validates -------

TEST_P(PlannerSweep, ArenaBuildersEmitValidArenas) {
  Fixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto& topology = f.placement.topology();
  const cluster::NodeId first = f.scenario.failed_node;
  const cluster::NodeId second = (first + 1) % topology.num_nodes();
  // A two-node failure, and the rebuild coordinator's re-plan after the
  // second one: the first failed node is the replacement and its chunks are
  // already recovered onto it.
  const std::vector<MultiFailureScenario> scenarios = {
      make_multi_failure(f.placement, {first, second}),
      make_multi_failure_onto(f.placement, {second}, first)};
  for (const MultiFailureScenario& scenario : scenarios) {
    const auto censuses = build_multi_censuses(f.placement, scenario);
    ASSERT_FALSE(censuses.empty());
    const auto balanced = balance_multi(f.placement, censuses);
    util::Rng rng(5);
    const auto rr = plan_multi_rr(f.placement, censuses, rng);
    PlanTemplateCache cache;  // warm for the second slice size
    for (const std::uint64_t slice : {std::uint64_t{16 * 1024}, kChunk}) {
      SCOPED_TRACE("slice " + std::to_string(slice));
      auto opts = f.options();
      opts.expected_cross_rack_chunks = claimed_cross_rack_chunks(
          balanced.solutions, scenario.replacement_rack);
      expect_valid(validate_arena(
          build_multi_car_arena(f.placement, f.code, balanced.solutions,
                                kChunk, slice, scenario.replacement, cache),
          topology, opts));
      opts.expected_cross_rack_chunks =
          multi_rr_traffic(f.placement, rr, scenario.replacement_rack)
              .total_chunks();
      expect_valid(validate_arena(
          build_multi_rr_arena(f.placement, f.code, rr, kChunk, slice,
                               scenario.replacement, cache),
          topology, opts));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigsAndSeeds, PlannerSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3, 17)));

// --- rejection: hand-built malformed plans -------------------------------

struct Malformed {
  Fixture fixture{1, 42};
  RecoveryPlan plan;

  Malformed() {
    const auto balanced =
        balance_multi(fixture.placement, fixture.censuses, 50);
    plan = build_multi_car_plan(fixture.placement, fixture.code, balanced.solutions,
                                kChunk, fixture.scenario.failed_node);
  }

  [[nodiscard]] ValidationReport validate() const {
    return validate_plan(plan, fixture.placement.topology(),
                         fixture.options());
  }
};

TEST(ValidateRejects, DependencyCycle) {
  Malformed m;
  // The first step feeds stripe 0's final compute; depending on it closes a
  // cycle.
  m.plan.steps.front().deps.push_back(m.plan.outputs.front().step_id);
  const auto report = m.validate();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("cycle"), std::string::npos)
      << report.to_string();
}

TEST(ValidateRejects, DanglingDependencyId) {
  Malformed m;
  m.plan.steps.back().deps.push_back(m.plan.steps.size() + 7);
  const auto report = m.validate();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("dangling"), std::string::npos)
      << report.to_string();
}

TEST(ValidateRejects, SelfDependency) {
  Malformed m;
  m.plan.steps.back().deps.push_back(m.plan.steps.back().id);
  EXPECT_FALSE(m.validate().ok());
}

TEST(ValidateRejects, TransferByteMismatch) {
  Malformed m;
  for (auto& step : m.plan.steps) {
    if (step.kind == StepKind::kTransfer) {
      step.bytes /= 2;
      break;
    }
  }
  const auto report = m.validate();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("chunk_size"), std::string::npos)
      << report.to_string();
}

TEST(ValidateRejects, ComputeByteMismatch) {
  Malformed m;
  for (auto& step : m.plan.steps) {
    if (step.kind == StepKind::kCompute) {
      step.bytes += 1;
      break;
    }
  }
  EXPECT_FALSE(m.validate().ok());
}

TEST(ValidateRejects, TwoAggregatorsInOneRack) {
  Malformed m;
  const auto& topology = m.fixture.placement.topology();
  // Duplicate an aggregator compute onto a sibling node in the same rack.
  bool injected = false;
  for (const auto& step : m.plan.steps) {
    if (injected) break;
    if (step.kind != StepKind::kCompute) continue;
    if (step.node == m.plan.replacement) continue;
    for (const auto sibling :
         topology.nodes_in_rack(topology.rack_of(step.node))) {
      if (sibling == step.node || sibling == m.plan.replacement) continue;
      PlanStep twin = step;
      twin.id = m.plan.steps.size();
      twin.node = sibling;
      m.plan.steps.push_back(std::move(twin));
      injected = true;
      break;
    }
  }
  ASSERT_TRUE(injected) << "fixture topology too small to inject";
  const auto report = m.validate();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("aggregator"), std::string::npos)
      << report.to_string();
}

TEST(ValidateRejects, CrossRackFlagLies) {
  Malformed m;
  for (auto& step : m.plan.steps) {
    if (step.kind == StepKind::kTransfer) {
      step.cross_rack = !step.cross_rack;
      break;
    }
  }
  EXPECT_FALSE(m.validate().ok());
}

TEST(ValidateRejects, TrafficClaimMismatch) {
  Malformed m;
  auto opts = m.fixture.options();
  // Claim one more cross-rack chunk than the plan actually ships.
  opts.expected_cross_rack_chunks =
      m.plan.cross_rack_bytes() / m.plan.chunk_size + 1;
  EXPECT_FALSE(
      validate_plan(m.plan, m.fixture.placement.topology(), opts).ok());
}

TEST(ValidateRejects, MissingDependencyBreaksDataFlow) {
  Malformed m;
  // Remove every dependency from the first compute: its gathered inputs are
  // no longer guaranteed to be on the aggregator when it runs.
  for (auto& step : m.plan.steps) {
    if (step.kind == StepKind::kCompute && !step.deps.empty()) {
      step.deps.clear();
      break;
    }
  }
  const auto report = m.validate();
  // Only fails when the first compute actually had remote inputs; find() on
  // the message keeps the assertion meaningful either way.
  if (!report.ok()) {
    EXPECT_NE(report.to_string().find("when the step may run"),
              std::string::npos)
        << report.to_string();
  }
}

TEST(ValidateRejects, OutputNeverReachesReplacement) {
  Malformed m;
  // Run the final combine somewhere other than the replacement, with no
  // transfer shipping the result back: the declared output is stranded.
  auto& final_step = m.plan.steps[m.plan.outputs.front().step_id];
  ASSERT_EQ(final_step.node, m.plan.replacement);
  final_step.node = (m.plan.replacement + 1) %
                    m.fixture.placement.topology().num_nodes();
  const auto report = m.validate();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("never reaches the replacement"),
            std::string::npos)
      << report.to_string();
}

TEST(ValidateRejects, NonDenseStepIds) {
  Malformed m;
  m.plan.steps.front().id = 999999;
  EXPECT_FALSE(m.validate().ok());
}

TEST(ValidateRejects, ZeroChunkSize) {
  Malformed m;
  m.plan.chunk_size = 0;
  EXPECT_FALSE(m.validate().ok());
}

// --- rejection: mutated template arenas ----------------------------------

/// A CAR arena straight from the template builder for two failed nodes of
/// one rack, so stripes that lose both decode two partials per aggregator.
struct MutatedArena {
  Fixture fixture{1, 42};
  MultiFailureScenario scenario;
  PlanArena arena;
  ValidateOptions options = fixture.options();

  explicit MutatedArena(std::uint64_t slice) {
    const auto& topology = fixture.placement.topology();
    const auto rack =
        topology.nodes_in_rack(topology.rack_of(fixture.scenario.failed_node));
    scenario = make_multi_failure(fixture.placement, {rack[0], rack[1]});
    const auto balanced = balance_multi(
        fixture.placement, build_multi_censuses(fixture.placement, scenario));
    PlanTemplateCache cache;
    arena = build_multi_car_arena(fixture.placement, fixture.code,
                                  balanced.solutions, kChunk, slice,
                                  scenario.replacement, cache);
    options.expected_cross_rack_chunks = claimed_cross_rack_chunks(
        balanced.solutions, scenario.replacement_rack);
  }

  [[nodiscard]] const Topology& topology() const {
    return fixture.placement.topology();
  }
  [[nodiscard]] ValidationReport validate() const {
    return validate_arena(arena, topology(), options);
  }
  /// A node of `node`'s rack other than `node`, `other` and the
  /// replacement, if the rack has one.
  [[nodiscard]] std::optional<cluster::NodeId> sibling(
      cluster::NodeId node, cluster::NodeId other) const {
    for (const auto candidate :
         topology().nodes_in_rack(topology().rack_of(node))) {
      if (candidate != node && candidate != other &&
          candidate != scenario.replacement) {
        return candidate;
      }
    }
    return std::nullopt;
  }
};

constexpr std::uint64_t kSlices[] = {16 * 1024, kChunk};

void expect_rejected(const ValidationReport& report,
                     const std::string& needle) {
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find(needle), std::string::npos)
      << report.to_string();
}

TEST(ValidateArena, AcceptsTheUnmutatedArena) {
  for (const std::uint64_t slice : kSlices) {
    const MutatedArena m(slice);
    ASSERT_GT(m.arena.num_base_steps(), 0u);
    expect_valid(m.validate());
  }
}

TEST(ValidateArenaRejects, TransferRedirectedWithinItsRack) {
  for (const std::uint64_t slice : kSlices) {
    MutatedArena m(slice);
    // A gather lands on a sibling of its aggregator (same rack, so the
    // cross-rack flag still holds): the partial decode lacks its chunk.
    bool mutated = false;
    for (std::uint64_t row = 0; row < m.arena.num_base_steps(); ++row) {
      if (m.arena.kind(row) != StepKind::kTransfer ||
          m.arena.cross_rack(row) || m.arena.src(row) == m.arena.dst(row)) {
        continue;
      }
      const auto sibling = m.sibling(m.arena.dst(row), m.arena.src(row));
      if (!sibling) continue;
      PlanArenaTestPeer::set_dst(m.arena, row, *sibling);
      mutated = true;
      break;
    }
    ASSERT_TRUE(mutated);
    expect_rejected(m.validate(), "when the step may run");
  }
}

TEST(ValidateArenaRejects, SliceGridThatDoesNotTileTheChunk) {
  // A row's bytes are its slice lengths (times its input count for a
  // compute), so a byte defect in an arena is a grid that no longer tiles
  // chunk_size: every transfer row would move a chunk minus one byte.
  for (const std::uint64_t slice : kSlices) {
    MutatedArena m(slice);
    PlanArenaTestPeer::set_chunk_size(m.arena, kChunk + 1);
    expect_rejected(m.validate(), "does not tile chunk_size");
  }
}

TEST(ValidateArenaRejects, MutatedDependency) {
  for (const std::uint64_t slice : kSlices) {
    // A partial decode that depends on itself instead of its first gather.
    MutatedArena back(slice);
    std::optional<std::uint64_t> partial;
    for (std::uint64_t row = 0; row < back.arena.num_base_steps(); ++row) {
      if (back.arena.kind(row) == StepKind::kCompute &&
          back.arena.stripe(row) != back.arena.stripe(0) &&
          !back.arena.deps(row).empty() &&
          back.arena.kind(back.arena.deps(row).front()) ==
              StepKind::kTransfer) {
        partial = row;
        break;
      }
    }
    ASSERT_TRUE(partial.has_value());
    PlanArenaTestPeer::set_first_dep(back.arena, *partial, *partial);
    expect_rejected(back.validate(), "which is not an earlier step");

    // The same dependency pointed at another stripe's first row: forward,
    // but an edge that leaves the stripe never proves data is in place.
    MutatedArena away(slice);
    PlanArenaTestPeer::set_first_dep(away.arena, *partial, 0);
    expect_rejected(away.validate(), "when the step may run");
  }
}

TEST(ValidateArenaRejects, DuplicatedOutput) {
  for (const std::uint64_t slice : kSlices) {
    MutatedArena m(slice);
    ASSERT_FALSE(m.arena.outputs().empty());
    PlanArenaTestPeer::add_output(m.arena, m.arena.outputs().back());
    expect_rejected(m.validate(), "duplicate output");
  }
}

TEST(ValidateArenaRejects, SecondAggregatorInARack) {
  for (const std::uint64_t slice : kSlices) {
    MutatedArena m(slice);
    // Two partial decodes of one stripe on one aggregator; move the second
    // to a sibling in the same rack.
    bool mutated = false;
    const std::uint64_t n = m.arena.num_base_steps();
    for (std::uint64_t a = 0; a < n && !mutated; ++a) {
      if (m.arena.kind(a) != StepKind::kCompute ||
          m.arena.node(a) == m.scenario.replacement) {
        continue;
      }
      for (std::uint64_t b = a + 1;
           b < n && m.arena.stripe(b) == m.arena.stripe(a); ++b) {
        if (m.arena.kind(b) != StepKind::kCompute ||
            m.arena.node(b) != m.arena.node(a)) {
          continue;
        }
        const auto sibling = m.sibling(m.arena.node(a), m.arena.node(a));
        if (!sibling) break;
        PlanArenaTestPeer::set_node(m.arena, b, *sibling);
        mutated = true;
        break;
      }
    }
    ASSERT_TRUE(mutated);
    expect_rejected(m.validate(), "aggregator nodes, expected exactly one");
  }
}

TEST(ValidateArenaRejects, CrossRackClaimOffByOne) {
  for (const std::uint64_t slice : kSlices) {
    for (const bool more : {false, true}) {
      MutatedArena m(slice);
      std::uint64_t& claim = *m.options.expected_cross_rack_chunks;
      ASSERT_GT(claim, 0u);
      claim = more ? claim + 1 : claim - 1;
      expect_rejected(m.validate(), "do not match the planner's claim");
    }
  }
}

// --- misc behaviour ------------------------------------------------------

TEST(Validate, EmptyPlanIsValid) {
  const Topology topology({3, 3});
  EXPECT_TRUE(validate_plan(RecoveryPlan{}, topology).ok());
}

TEST(Validate, WithoutPlacementSkipsDataFlowWithNote) {
  Malformed m;
  ValidateOptions opts;  // no placement
  const auto report =
      validate_plan(m.plan, m.fixture.placement.topology(), opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes.front().find("placement"), std::string::npos);
}

TEST(Validate, OversizePlanSkipsFlowAnalysisWithNote) {
  Malformed m;
  auto opts = m.fixture.options();
  opts.max_flow_analysis_steps = 1;
  const auto report =
      validate_plan(m.plan, m.fixture.placement.topology(), opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes.front().find("max_flow_analysis_steps"),
            std::string::npos);
}

TEST(Validate, ReportToStringListsEveryError) {
  Malformed m;
  m.plan.steps.back().deps.push_back(m.plan.steps.size() + 7);
  for (auto& step : m.plan.steps) {
    if (step.kind == StepKind::kTransfer) {
      step.bytes += 3;
      break;
    }
  }
  const auto report = m.validate();
  ASSERT_GE(report.errors.size(), 2U);
  const auto text = report.to_string();
  for (const auto& error : report.errors) {
    EXPECT_NE(text.find(error), std::string::npos);
  }
}

}  // namespace
}  // namespace car::recovery
