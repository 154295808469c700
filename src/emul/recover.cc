#include "emul/recover.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/rng.h"

namespace car::emul {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Lower `solutions` and replay them into `result`.  The reserve pass
/// fixes the arena's extents; the append then runs before the replay
/// (barrier: reserve + append is build_multi_*_arena) or on a producer
/// thread that publishes its stripe-closed row watermark while the
/// executor replays the published rows (streamed).
template <typename Solution>
void lower_and_replay(Cluster& cluster, const cluster::Placement& placement,
                      const rs::Code& code, cluster::NodeId replacement,
                      const RecoverOptions& options,
                      std::span<const Solution> solutions,
                      recovery::PlanTemplateCache& cache,
                      RecoverResult& result) {
  const std::uint64_t slice =
      options.slice_bytes > 0 ? options.slice_bytes
                              : std::max<std::uint64_t>(options.chunk_bytes, 1);
  constexpr bool kCar =
      std::is_same_v<Solution, recovery::MultiStripeSolution>;
  auto t = Clock::now();
  recovery::ArenaStreamBuild build = [&] {
    if constexpr (kCar) {
      return recovery::reserve_multi_car_arena(
          placement, solutions, options.chunk_bytes, slice, replacement,
          cache);
    } else {
      return recovery::reserve_multi_rr_arena(
          placement, solutions, options.chunk_bytes, slice, replacement,
          cache);
    }
  }();
  const double reserve_s = seconds_since(t);
  const auto append = [&](const std::function<void(std::uint64_t)>& publish) {
    if constexpr (kCar) {
      recovery::stream_multi_car_arena(build, placement, code, solutions,
                                       cache, publish);
    } else {
      recovery::stream_multi_rr_arena(build, placement, code, solutions,
                                      cache, publish);
    }
  };
  double append_s = 0.0;
  if (!options.stream) {
    t = Clock::now();
    append({});
    append_s = seconds_since(t);
    t = Clock::now();
    result.report = cluster.execute_arena(build.arena, options.exec);
    result.replay_s = seconds_since(t);
  } else {
    ArenaStreamFeed feed;
    std::exception_ptr produce_error;
    std::thread producer([&] {
      // Closes the feed on every exit, so the executor's ingest loop ends
      // (an early close fails it with its closed-before-published error).
      const ArenaStreamFeed::ProducerGuard close_feed(feed);
      const auto p0 = Clock::now();
      try {
        append([&feed](std::uint64_t rows) { feed.publish(rows); });
      } catch (...) {
        produce_error = std::current_exception();
      }
      append_s = seconds_since(p0);
    });
    t = Clock::now();
    try {
      result.report =
          cluster.execute_arena_streaming(build.arena, options.exec, feed);
    } catch (...) {
      producer.join();
      if (produce_error) std::rethrow_exception(produce_error);
      throw;
    }
    result.replay_s = seconds_since(t);
    producer.join();
    if (produce_error) std::rethrow_exception(produce_error);
  }
  result.lower_s = reserve_s + append_s;
  result.arena = std::move(build.arena);
}

}  // namespace

RecoverResult recover(Cluster& cluster, const cluster::Placement& placement,
                      const rs::Code& code,
                      const recovery::MultiFailureScenario& scenario,
                      const RecoverOptions& options) {
  RecoverResult result;
  const auto start = Clock::now();
  const auto censuses =
      recovery::build_multi_censuses(placement, scenario, options.exec.shards);
  result.census_s = seconds_since(start);
  result.affected_stripes = censuses.size();
  if (censuses.empty()) {
    result.recover_s = seconds_since(start);
    return result;
  }

  // Solve first in both modes: CAR's balancing is a barrier over every
  // census, so streaming overlaps only the phases after it.
  recovery::PlanTemplateCache cache;
  const auto t = Clock::now();
  if (options.strategy == recovery::Strategy::kCar) {
    const auto balanced = recovery::balance_multi(placement, censuses,
                                                  options.balance_iterations);
    result.solve_s = seconds_since(t);
    lower_and_replay<recovery::MultiStripeSolution>(
        cluster, placement, code, scenario.replacement, options,
        balanced.solutions, cache, result);
  } else {
    util::Rng rr_rng(options.rr_seed);
    const auto rr = recovery::plan_multi_rr(placement, censuses, rr_rng);
    result.solve_s = seconds_since(t);
    lower_and_replay<recovery::MultiRrSolution>(
        cluster, placement, code, scenario.replacement, options, rr, cache,
        result);
  }
  result.template_stats = cache.stats();
  result.recover_s = seconds_since(start);
  return result;
}

std::vector<cluster::StripeId> first_affected_stripes(
    const cluster::Placement& placement,
    std::span<const cluster::NodeId> failed, std::size_t n) {
  std::vector<char> dead(placement.topology().num_nodes(), 0);
  for (const cluster::NodeId node : failed) dead.at(node) = 1;
  std::vector<cluster::StripeId> stripes;
  for (cluster::StripeId s = 0;
       s < placement.num_stripes() && stripes.size() < n; ++s) {
    const auto hosts = placement.stripe(s);
    if (std::any_of(hosts.begin(), hosts.end(),
                    [&](cluster::NodeId node) { return dead[node] != 0; })) {
      stripes.push_back(s);
    }
  }
  return stripes;
}

}  // namespace car::emul
