// Full recovery on the in-process emulated cluster: real bytes move through
// rate-limited links and real GF(2^8) arithmetic reconstructs the lost
// chunks.  Prints the recovery time and the transmission/computation
// breakdown for CAR vs RR on CFS2 (the Google-Colossus-like configuration).
// Times are on the emulator's virtual clock: nothing sleeps, and the
// reported numbers are deterministic.
//
// Build & run:  ./build/examples/emulated_cluster [stripes] [chunk_KiB]
#include <cstdio>
#include <cstdlib>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "util/bytes.h"

int main(int argc, char** argv) {
  using namespace car;
  if (argc > 3) {
    std::fprintf(stderr, "usage: %s [stripes] [chunk_KiB]\n", argv[0]);
    return 2;
  }
  const std::size_t stripes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
  const std::uint64_t chunk_size =
      (argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256) * 1024;

  const auto cfg = cluster::cfs2();
  const rs::Code code(cfg.k, cfg.m);
  util::Rng rng(42);
  const auto placement =
      cluster::Placement::random(cfg.topology(), cfg.k, cfg.m, stripes, rng);

  emul::EmulConfig emul_cfg;
  emul_cfg.node_bps = 400e6;       // scaled-down fabric so this runs fast
  emul_cfg.oversubscription = 5.0;  // cross-rack is the scarce resource

  auto run = [&](bool use_car) {
    emul::Cluster cluster(cfg.topology(), emul_cfg);
    util::Rng data_rng(7);  // same data for both arms
    const auto originals = cluster.populate(placement, code, chunk_size,
                                            data_rng);
    util::Rng fail_rng(9);
    const auto scenario = cluster::inject_random_failure(placement, fail_rng);
    cluster.erase_node(scenario.failed_node);
    const auto censuses = recovery::build_censuses(placement, scenario);

    recovery::RecoveryPlan plan;
    if (use_car) {
      const auto balanced = recovery::balance_greedy(placement, censuses, {50});
      plan = recovery::build_car_plan(placement, code, balanced.solutions,
                                      chunk_size, scenario.failed_node);
    } else {
      util::Rng rr_rng(11);
      const auto rr = recovery::plan_rr(placement, censuses, rr_rng);
      plan = recovery::build_rr_plan(placement, code, rr, chunk_size,
                                     scenario.failed_node);
    }
    const auto report = cluster.execute(plan);

    // Verify every recovered chunk bit-exactly.
    std::size_t verified = 0;
    for (const auto& lost : scenario.lost) {
      const auto* rec = cluster.find_chunk(scenario.failed_node, lost.stripe,
                                           lost.chunk_index);
      if (rec != nullptr && *rec == originals[lost.stripe][lost.chunk_index]) {
        ++verified;
      }
    }

    std::printf("%-4s recovered %zu/%zu chunks | wall %.3f s | "
                "compute %.3f s | cross-rack %s | per-chunk %.1f ms\n",
                use_car ? "CAR" : "RR", verified, scenario.lost.size(),
                report.wall_s, report.compute_s,
                util::format_bytes(report.cross_rack_bytes).c_str(),
                1e3 * report.wall_s /
                    static_cast<double>(scenario.lost.size()));
    return report;
  };

  std::printf("CFS2 %s, RS(%zu,%zu), %zu stripes, %s chunks, virtual clock\n",
              cfg.topology().to_string().c_str(), cfg.k, cfg.m, stripes,
              util::format_bytes(chunk_size).c_str());
  const auto rr = run(false);
  const auto car = run(true);
  std::printf("\nCAR vs RR: %.1f%% less cross-rack traffic, %.1f%% faster\n",
              100.0 * (1.0 - static_cast<double>(car.cross_rack_bytes) /
                                 static_cast<double>(rr.cross_rack_bytes)),
              100.0 * (1.0 - car.wall_s / rr.wall_s));
  return 0;
}
