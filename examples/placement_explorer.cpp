// Placement explorer: visualises how CAR reasons about a failure.
//
// Reconstructs the paper's Figure 4 scenario — five racks, RS(8,6), a stripe
// with rack census (4,1,3,2,4), failure of the first node — then walks
// through Theorem 1, the valid minimal solutions, and the greedy balancing
// pass on a random multi-stripe layout, narrating each step.
//
// Build & run:  ./build/examples/placement_explorer
#include <cstdio>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "util/table.h"

int main() {
  using namespace car;

  // --- Part 1: the paper's Figure 4 stripe -------------------------------
  std::printf("== Figure 4: Theorem 1 on a hand-built stripe ==\n");
  cluster::Placement fig4(cluster::Topology({4, 4, 4, 4, 4}), 8, 6);
  fig4.add_stripe({0, 1, 2, 3, 4, 8, 9, 10, 12, 13, 16, 17, 18, 19});
  const auto node0 = recovery::make_multi_failure(fig4, {0});
  const auto census = recovery::build_multi_censuses(fig4, node0).front();
  const cluster::RackId failed_rack = census.replacement_rack;
  const auto ranked = census.surviving.ranked();
  std::vector<std::size_t> surviving(fig4.topology().num_racks(), 0);
  for (const auto& entry : ranked) surviving[entry.rack] = entry.count;

  std::printf("rack census c_i:      ");
  for (auto c : fig4.rack_census(census.stripe)) std::printf("%zu ", c);
  std::printf("\nsurviving census c'_i: ");
  for (auto c : surviving) std::printf("%zu ", c);
  std::printf("\nfailed rack A%zu keeps %zu survivors; k = %zu\n",
              failed_rack + 1, surviving[failed_rack], census.k);

  const auto d = recovery::min_racks_for(census.k, failed_rack, ranked);
  std::printf("Theorem 1: minimum intact racks d = %zu\n", d);

  std::printf("valid minimal solutions (racks are 1-indexed like the paper):\n");
  for (const auto& set :
       recovery::enumerate_rack_sets(census.k, failed_rack, ranked)) {
    std::printf("  {");
    for (std::size_t i = 0; i < set.racks.size(); ++i) {
      std::printf("%sA%zu", i ? ", " : "", set.racks[i] + 1);
    }
    std::printf("}\n");
  }

  const auto chosen = recovery::default_rack_set(census.k, failed_rack, ranked);
  const auto solution = recovery::materialize_multi(fig4, census, chosen);
  std::printf("default pick reads %zu chunks:\n", census.k);
  for (const auto& pick : solution.picks) {
    std::printf("  rack A%zu -> %u chunk(s)%s\n", pick.rack + 1, pick.count,
                pick.rack == failed_rack ? "  (intra-rack, free)" : "");
  }
  std::printf("cross-rack traffic with aggregation: %zu chunks\n\n",
              solution.cross_rack_chunks());

  // --- Part 2: greedy balancing across 100 stripes -----------------------
  std::printf("== Algorithm 2: balancing cross-rack traffic on CFS3 ==\n");
  const auto cfg = cluster::cfs3();
  util::Rng rng(2026);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, 100, rng);
  const auto fail = cluster::inject_random_failure(placement, rng);
  const auto failure =
      recovery::make_multi_failure(placement, {fail.failed_node});
  const auto result = recovery::balance_multi(
      placement, recovery::build_multi_censuses(placement, failure), 50);

  std::printf("failed node %zu in rack A%zu, %zu stripes affected\n",
              fail.failed_node, fail.failed_rack + 1, fail.lost.size());
  std::printf("lambda trace (iteration -> lambda):\n");
  for (std::size_t i = 0; i < result.lambda_trace.size(); ++i) {
    if (i % 5 == 0 || i + 1 == result.lambda_trace.size()) {
      std::printf("  %2zu: %.4f\n", i, result.lambda_trace[i]);
    }
  }
  std::printf("substitutions applied: %zu\n", result.substitutions);

  const auto traffic = recovery::multi_traffic(
      result.solutions, placement.topology().num_racks(), fail.failed_rack);
  util::TextTable table({"rack", "cross-rack chunks"});
  for (cluster::RackId r = 0; r < traffic.per_rack_chunks.size(); ++r) {
    table.add_row({"A" + std::to_string(r + 1) +
                       (r == fail.failed_rack ? " (failed)" : ""),
                   std::to_string(traffic.per_rack_chunks[r])});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("final lambda = %.4f (1.0 is perfectly balanced)\n",
              traffic.lambda());
  return 0;
}
