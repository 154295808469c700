// emul::recover is the hand-composed pipeline, bit for bit: the census,
// balance_multi or plan_multi_rr, the template-cached arena build and
// execute_arena give the same modelled timeline, byte counts and plan, for
// CAR and RR, barrier and streamed, one and four shards, metadata-only and
// real bytes.  Also pins first_affected_stripes to the arena's output order,
// verify_outputs to the recovered bytes, and the empty-failure result.
#include "emul/recover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/failure.h"
#include "cluster/topology.h"
#include "emul/cluster.h"
#include "recovery/multi.h"
#include "recovery/plan_template.h"
#include "recovery/replan.h"
#include "util/rng.h"

namespace car {
namespace {

using recovery::Strategy;

constexpr std::uint64_t kSeed = 41;
constexpr std::uint64_t kChunk = 4096;
constexpr std::uint64_t kSlice = 1024;
constexpr std::size_t kStripes = 120;
constexpr std::size_t kSample = 3;

emul::EmulConfig fabric() {
  emul::EmulConfig cfg;
  cfg.node_bps = 200e6;
  cfg.oversubscription = 4.0;
  cfg.page_bytes = 1024;
  return cfg;
}

/// Six racks of four nodes, RS(4,2), and a whole rack failing.
struct Inputs {
  cluster::Placement placement;
  recovery::MultiFailureScenario failure;
  rs::Code code{4, 2};
};

Inputs make_inputs() {
  const cluster::Topology topology(std::vector<std::size_t>(6, 4));
  util::Rng rng(kSeed);
  auto placement = cluster::Placement::random(topology, 4, 2, kStripes, rng);
  util::Rng fail_rng(kSeed + 1);
  const auto first =
      cluster::inject_random_failure(placement, fail_rng).failed_node;
  std::vector<cluster::NodeId> failed{first};
  for (const auto node : topology.nodes_in_rack(topology.rack_of(first))) {
    if (node != first) failed.push_back(node);
  }
  auto failure = recovery::make_multi_failure(placement, failed);
  return {std::move(placement), std::move(failure)};
}

/// A cluster holding `in`'s stripes (the first kSample affected ones
/// under metadata-only, all otherwise) with the failed rack erased.
struct Populated {
  std::unique_ptr<emul::Cluster> cluster;
  emul::Originals originals;
  emul::ArenaExecOptions exec;
};

Populated populate(const Inputs& in, bool metadata_only,
                   std::size_t shards) {
  Populated p;
  p.cluster = std::make_unique<emul::Cluster>(in.placement.topology(),
                                              fabric());
  std::vector<cluster::StripeId> stripes(kStripes);
  std::iota(stripes.begin(), stripes.end(), cluster::StripeId{0});
  p.exec.shards = shards;
  p.exec.metadata_only = metadata_only;
  if (metadata_only) {
    stripes = emul::first_affected_stripes(
        in.placement, in.failure.failed_nodes, kSample);
    p.exec.sampled_stripes = stripes;
  }
  p.originals = p.cluster->populate_sampled(in.placement, in.code,
                                            kChunk, kSeed, stripes);
  for (const auto node : in.failure.failed_nodes) {
    p.cluster->erase_node(node);
  }
  return p;
}

emul::RecoverOptions options_for(Strategy strategy, bool stream,
                                 const emul::ArenaExecOptions& exec) {
  emul::RecoverOptions options;
  options.strategy = strategy;
  options.balance_iterations = 20;
  options.chunk_bytes = kChunk;
  options.slice_bytes = kSlice;
  options.stream = stream;
  options.rr_seed = kSeed + 2;
  options.exec = exec;
  return options;
}

struct Composed {
  emul::ExecutionReport report;
  recovery::PlanArena arena;
  std::size_t affected = 0;
  recovery::TemplateStats stats;
};

/// The pipeline written out by hand: execute_arena(build_multi_*_arena).
Composed compose(const Inputs& in, const emul::RecoverOptions& options,
                 emul::Cluster& cluster) {
  const auto& placement = in.placement;
  const auto censuses =
      recovery::build_multi_censuses(placement, in.failure);
  recovery::PlanTemplateCache cache;
  Composed c;
  c.affected = censuses.size();
  if (options.strategy == Strategy::kCar) {
    const auto balanced = recovery::balance_multi(placement, censuses,
                                                  options.balance_iterations);
    c.arena = recovery::build_multi_car_arena(
        placement, in.code, balanced.solutions, kChunk, kSlice,
        in.failure.replacement, cache);
  } else {
    util::Rng rr_rng(options.rr_seed);
    const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
    c.arena = recovery::build_multi_rr_arena(placement, in.code, rr,
                                             kChunk, kSlice,
                                             in.failure.replacement, cache);
  }
  c.report = cluster.execute_arena(c.arena, options.exec);
  c.stats = cache.stats();
  return c;
}

using Params = std::tuple<Strategy, bool, std::size_t, bool>;

class RecoverMatchesComposed : public ::testing::TestWithParam<Params> {};

TEST_P(RecoverMatchesComposed, SameTimelineBytesAndPlan) {
  const auto [strategy, stream, shards, metadata_only] = GetParam();
  const Inputs in = make_inputs();

  Populated mine = populate(in, metadata_only, shards);
  const auto options = options_for(strategy, stream, mine.exec);
  const auto run = emul::recover(*mine.cluster, in.placement, in.code,
                                 in.failure, options);

  Populated theirs = populate(in, metadata_only, shards);
  const Composed ref = compose(in, options, *theirs.cluster);

  ASSERT_GT(ref.affected, 0u);
  EXPECT_EQ(run.affected_stripes, ref.affected);
  EXPECT_EQ(run.report.wall_s, ref.report.wall_s);
  EXPECT_EQ(run.report.compute_s, ref.report.compute_s);
  EXPECT_EQ(run.report.replacement_compute_s,
            ref.report.replacement_compute_s);
  EXPECT_EQ(run.report.cross_rack_bytes, ref.report.cross_rack_bytes);
  EXPECT_EQ(run.report.intra_rack_bytes, ref.report.intra_rack_bytes);
  EXPECT_EQ(run.report.per_rack_cross_bytes, ref.report.per_rack_cross_bytes);
  EXPECT_EQ(run.arena.num_base_steps(), ref.arena.num_base_steps());
  EXPECT_EQ(run.arena.num_sliced_steps(), ref.arena.num_sliced_steps());
  EXPECT_EQ(run.template_stats.hits, ref.stats.hits);
  EXPECT_EQ(run.template_stats.misses, ref.stats.misses);
  EXPECT_GT(run.report.wall_s, 0.0);

  const auto outputs = run.arena.outputs();
  ASSERT_EQ(outputs.size(), ref.arena.outputs().size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].stripe, ref.arena.outputs()[i].stripe) << i;
    EXPECT_EQ(outputs[i].chunk_index, ref.arena.outputs()[i].chunk_index)
        << i;
  }

  // Every stripe with bytes is recovered bit-exactly: the sample under
  // metadata-only, every output otherwise.
  const auto counts = emul::verify_outputs(
      *mine.cluster, in.failure.replacement, outputs, mine.originals);
  EXPECT_EQ(counts.verified, counts.expected);
  if (metadata_only) {
    EXPECT_GE(counts.expected, kSample);
    EXPECT_LT(counts.expected, outputs.size());
  } else {
    EXPECT_EQ(counts.expected, outputs.size());
  }

  EXPECT_GE(run.census_s, 0.0);
  EXPECT_GE(run.solve_s, 0.0);
  EXPECT_GE(run.lower_s, 0.0);
  EXPECT_GE(run.replay_s, 0.0);
  EXPECT_GE(run.recover_s, run.census_s + run.solve_s + run.replay_s);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RecoverMatchesComposed,
    ::testing::Combine(::testing::Values(Strategy::kCar, Strategy::kRr),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(recovery::to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_stream" : "_barrier") + "_shards" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_meta" : "_real");
    });

TEST(FirstAffectedStripes, AreTheArenasFirstOutputStripes) {
  const Inputs in = make_inputs();
  for (const Strategy strategy : {Strategy::kCar, Strategy::kRr}) {
    Populated p = populate(in, /*metadata_only=*/true, 1);
    const auto run =
        emul::recover(*p.cluster, in.placement, in.code, in.failure,
                      options_for(strategy, false, p.exec));
    std::vector<cluster::StripeId> distinct;
    for (const auto& out : run.arena.outputs()) {
      if (std::find(distinct.begin(), distinct.end(), out.stripe) ==
          distinct.end()) {
        distinct.push_back(out.stripe);
      }
    }
    ASSERT_EQ(distinct.size(), run.affected_stripes);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kSample, distinct.size(),
          kStripes + 1}) {
      const auto first = emul::first_affected_stripes(
          in.placement, in.failure.failed_nodes, n);
      const std::vector<cluster::StripeId> want(
          distinct.begin(),
          distinct.begin() +
              static_cast<std::ptrdiff_t>(std::min(n, distinct.size())));
      EXPECT_EQ(first, want) << recovery::to_string(strategy) << " n=" << n;
    }
  }
}

TEST(VerifyOutputs, CountsOnlyStripesWithOriginalsAndCatchesACorruptChunk) {
  const Inputs in = make_inputs();
  Populated p = populate(in, /*metadata_only=*/false, 1);
  const auto run =
      emul::recover(*p.cluster, in.placement, in.code, in.failure,
                    options_for(Strategy::kCar, false, p.exec));
  const auto outputs = run.arena.outputs();
  const auto all = emul::verify_outputs(
      *p.cluster, in.failure.replacement, outputs, p.originals);
  EXPECT_EQ(all.expected, outputs.size());
  EXPECT_EQ(all.verified, outputs.size());

  // Only the outputs of stripes with originals count, and a flipped byte
  // in the original fails exactly its chunk.
  const auto& out = outputs.front();
  emul::Originals one{{out.stripe, p.originals.at(out.stripe)}};
  const auto good = emul::verify_outputs(
      *p.cluster, in.failure.replacement, outputs, one);
  EXPECT_GE(good.expected, 1u);
  EXPECT_LT(good.expected, outputs.size());
  EXPECT_EQ(good.verified, good.expected);
  one.at(out.stripe)[out.chunk_index][0] ^= 0xFF;
  const auto bad = emul::verify_outputs(*p.cluster, in.failure.replacement,
                                        outputs, one);
  EXPECT_EQ(bad.expected, good.expected);
  EXPECT_EQ(bad.verified, good.expected - 1);
}

TEST(Recover, AnExecutorErrorJoinsTheProducerAndPropagates) {
  // Real-byte mode on a cluster that holds no chunk: the replay fails on
  // its first transfer.  Streamed, the producer thread must be joined
  // before the error leaves recover (a joinable std::thread would abort).
  const Inputs in = make_inputs();
  for (const bool stream : {false, true}) {
    emul::Cluster cluster(in.placement.topology(), fabric());
    EXPECT_ANY_THROW((void)emul::recover(
        cluster, in.placement, in.code, in.failure,
        options_for(Strategy::kCar, stream, {})))
        << (stream ? "streamed" : "barrier");
  }
}

TEST(Recover, AFailureThatHitsNoStripeReturnsAnEmptyResult) {
  // One stripe on 24 nodes: most nodes hold nothing.
  const cluster::Topology topology(std::vector<std::size_t>(6, 4));
  util::Rng rng(kSeed);
  const auto placement = cluster::Placement::random(topology, 4, 2, 1, rng);
  const auto hosts = placement.stripe(0);
  cluster::NodeId idle = 0;
  while (std::find(hosts.begin(), hosts.end(), idle) != hosts.end()) ++idle;
  const auto failure = recovery::make_multi_failure(placement, {idle});
  EXPECT_TRUE(
      emul::first_affected_stripes(placement, failure.failed_nodes, 5)
          .empty());
  for (const Strategy strategy : {Strategy::kCar, Strategy::kRr}) {
    for (const bool stream : {false, true}) {
      emul::Cluster cluster(topology, fabric());
      const std::vector<cluster::StripeId> all{0};
      (void)cluster.populate_sampled(placement, rs::Code(4, 2), kChunk, kSeed,
                                     all);
      cluster.erase_node(idle);
      emul::RecoverResult run;
      ASSERT_NO_THROW(run = emul::recover(
                          cluster, placement, rs::Code(4, 2), failure,
                          options_for(strategy, stream, {})));
      EXPECT_EQ(run.affected_stripes, 0u);
      EXPECT_EQ(run.arena.num_base_steps(), 0u);
      EXPECT_TRUE(run.arena.outputs().empty());
      EXPECT_EQ(run.report.wall_s, 0.0);
      EXPECT_EQ(run.report.cross_rack_bytes, 0u);
      EXPECT_EQ(run.template_stats.misses, 0u);
    }
  }
}

}  // namespace
}  // namespace car
