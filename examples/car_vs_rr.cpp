// CAR vs RR on the paper's three CFS configurations (Table II).
//
// For each configuration this example builds a random rack-fault-tolerant
// placement of 100 stripes, fails a random node, and compares the cross-rack
// repair traffic and load-balancing rate of:
//   * RR  — the baseline that fetches k random survivors to the replacement;
//   * CAR — minimum-rack selection + partial decoding + greedy balancing.
//
// Build & run:  ./build/examples/car_vs_rr [seed]
#include <cstdio>
#include <cstdlib>

#include "cluster/configs.h"
#include "cluster/failure.h"
#include "recovery/multi.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace car;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  constexpr std::size_t kStripes = 100;

  util::TextTable table({"CFS", "code", "lost chunks", "RR x-rack (chunks)",
                         "CAR x-rack (chunks)", "saving", "RR lambda",
                         "CAR lambda"});

  for (const auto& cfg : cluster::paper_configs()) {
    util::Rng rng(seed);
    const auto placement =
        cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, kStripes, rng);
    const auto scenario = cluster::inject_random_failure(placement, rng);
    const auto censuses = recovery::build_multi_censuses(
        placement,
        recovery::make_multi_failure(placement, {scenario.failed_node}));

    const auto rr = recovery::plan_multi_rr(placement, censuses, rng);
    const auto rr_sum =
        recovery::multi_rr_traffic(placement, rr, scenario.failed_rack);

    const auto car = recovery::balance_multi(placement, censuses, 50);
    const auto car_sum = recovery::multi_traffic(
        car.solutions, placement.topology().num_racks(), scenario.failed_rack);

    const double saving =
        1.0 - static_cast<double>(car_sum.total_chunks()) /
                  static_cast<double>(rr_sum.total_chunks());
    table.add_row({cfg.name,
                   "RS(" + std::to_string(cfg.k) + "," +
                       std::to_string(cfg.m) + ")",
                   std::to_string(scenario.lost.size()),
                   std::to_string(rr_sum.total_chunks()),
                   std::to_string(car_sum.total_chunks()),
                   util::fmt_percent(saving),
                   util::fmt_double(rr_sum.lambda()),
                   util::fmt_double(car_sum.lambda())});
  }

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nCAR accesses the minimum number of racks per stripe and aggregates\n"
      "inside each rack, so each accessed rack ships exactly one chunk.\n");
  return 0;
}
