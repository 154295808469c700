// Figure 10 reproduction: transmission vs computation time breakdown.
//
// The paper serialises recovery per stripe and measures the decode
// (finite-field) time against the data-movement time at a fixed 8 MiB chunk
// size.  This harness runs the real-byte cluster emulator with stripes
// recovered one at a time (mirroring the paper's measurement procedure),
// using a scaled chunk size; only the ratios matter and they are scale-free
// as long as network/compute scale together.  Both halves come from the
// emulator's virtual clock, so the output is deterministic: transmission
// from the link-reservation replay, computation from the modelled decode
// rate (EmulConfig::virtual_gf_bps, calibrated against bench/micro_gf).
//
//   Fig. 10(a): transmission vs computation share of recovery time.
//   Fig. 10(b): CAR computation time normalised to RR's.
#include <cstdio>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "util/bytes.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

constexpr std::size_t kStripes = 16;
constexpr int kRuns = 2;
constexpr std::uint64_t kChunkSize = 1024 * 1024;  // scaled stand-in for 8 MiB

struct Breakdown {
  double wall_s = 0.0;
  double compute_s = 0.0;
};

car::emul::EmulConfig emul_config() {
  car::emul::EmulConfig cfg;
  // Scaled fabric: the node link is ~1/8 of what the GF kernels sustain, so
  // transmission dominates like on a Gigabit testbed.
  cfg.node_bps = 250e6;
  cfg.oversubscription = 5.0;
  cfg.page_bytes = 32 * 1024;
  return cfg;
}

/// Recover the scenario stripe-by-stripe (serialised, like the paper's
/// measurement) and accumulate virtual wall/compute time.
template <typename PlanOneStripe>
Breakdown run_serialised(const car::cluster::CfsConfig& cfg,
                         std::uint64_t seed, PlanOneStripe&& plan_stripe) {
  using namespace car;
  util::Rng rng(seed);
  const auto placement = cluster::Placement::random(cfg.topology(), cfg.k,
                                                    cfg.m, kStripes, rng);
  const rs::Code code(cfg.k, cfg.m);
  emul::Cluster cluster(cfg.topology(), emul_config());
  util::Rng data_rng(seed + 1);
  cluster.populate(placement, code, kChunkSize, data_rng);
  const auto scenario = cluster::inject_random_failure(placement, rng);
  cluster.erase_node(scenario.failed_node);
  const auto censuses = recovery::build_censuses(placement, scenario);

  Breakdown total;
  for (const auto& census : censuses) {
    const auto plan = plan_stripe(placement, code, census, scenario, rng);
    const auto report = cluster.execute(plan);
    total.wall_s += report.wall_s;
    total.compute_s += report.compute_s;
  }
  return total;
}

}  // namespace

int main() {
  using namespace car;
  std::printf("== Figure 10: transmission vs computation breakdown ==\n");
  std::printf("real-byte emulator on the virtual clock, serialised "
              "per-stripe recovery, %zu\nstripes, %s chunks, %d runs per "
              "configuration\n\n",
              kStripes, util::format_bytes(kChunkSize).c_str(), kRuns);

  util::TextTable table_a({"config", "algorithm", "computation share",
                           "transmission share"});
  util::TextTable table_b({"config", "CAR compute / RR compute"});

  for (const auto& cfg : cluster::paper_configs()) {
    util::RunningStats rr_ratio, car_ratio, normalised;
    for (int run = 0; run < kRuns; ++run) {
      const std::uint64_t seed = 0xF1A00000ULL + run * 739;

      const auto rr = run_serialised(
          cfg, seed,
          [](const auto& placement, const auto& code, const auto& census,
             const auto& scenario, util::Rng& rng) {
            const auto solution =
                recovery::random_recovery(placement, census, rng);
            return recovery::build_rr_plan(placement, code, {&solution, 1},
                                           kChunkSize, scenario.failed_node);
          });

      const auto car = run_serialised(
          cfg, seed,
          [](const auto& placement, const auto& code, const auto& census,
             const auto& scenario, util::Rng&) {
            const auto solution = recovery::materialize(
                placement, census, recovery::default_solution(census));
            return recovery::build_car_plan(placement, code, {&solution, 1},
                                            kChunkSize, scenario.failed_node);
          });

      rr_ratio.add(rr.compute_s / rr.wall_s);
      car_ratio.add(car.compute_s / car.wall_s);
      normalised.add(car.compute_s / rr.compute_s);
    }

    table_a.add_row({cfg.name, "RR",
                     util::fmt_percent(rr_ratio.mean()),
                     util::fmt_percent(1.0 - rr_ratio.mean())});
    table_a.add_row({cfg.name, "CAR",
                     util::fmt_percent(car_ratio.mean()),
                     util::fmt_percent(1.0 - car_ratio.mean())});
    table_b.add_row({cfg.name, util::fmt_double(normalised.mean(), 2)});
  }

  std::printf("-- Fig. 10(a): time shares --\n%s\n",
              table_a.to_string().c_str());
  std::printf("-- Fig. 10(b): computation time, CAR normalised to RR --\n%s\n",
              table_b.to_string().c_str());
  std::printf(
      "Paper reference: transmission dominates everywhere; CAR's compute "
      "share falls\nfrom 11.3%% (CFS1, k=4) to 7.1%% (CFS3, k=10).  The "
      "model charges every compute\nstep its input bytes at one decode "
      "rate, so CAR's final combine of d rack\npartials adds d chunks to "
      "the k that RR decodes: CAR/RR compute is about\n(k+d)/k.\n");
  return 0;
}
