// Figure 9 reproduction: recovery time per lost chunk, CAR vs RR.
//
// The paper measures wall-clock recovery on a 20-node Gigabit testbed; this
// harness replays the same plans on the flow-level simulator (src/simnet):
// 1 GbE node links, a 5x-oversubscribed core, heterogeneous per-rack compute
// (Table III stand-in).  Chunk sizes 4/8/16 MiB, 100 stripes, mean of
// 20 simulated runs (the simulator is deterministic per seed; variation
// comes from placement/failure randomness).
#include <cstdio>

#include "cluster/configs.h"
#include "emul/cluster.h"
#include "recovery/balancer.h"
#include "simnet/flowsim.h"
#include "util/bytes.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

constexpr std::size_t kStripes = 100;
constexpr int kRuns = 20;
constexpr std::uint64_t kChunkSizesMiB[] = {4, 8, 16};

// Virtual-clock emulator cross-check: same plans, real bytes, deterministic
// simulated timing.  Chunks are scaled down (recovery time is linear in
// chunk size, so the CAR/RR ratio is scale-free) and a few runs suffice
// because the emulator's virtual clock is bit-deterministic per seed.
constexpr std::uint64_t kEmulChunk = 64 * 1024;
constexpr int kEmulRuns = 3;

car::simnet::NetConfig testbed_net(std::size_t num_racks) {
  car::simnet::NetConfig net;
  net.node_bps = 125e6;       // 1 GbE
  net.oversubscription = 5.0; // scarce cross-rack bandwidth
  // Deliberately pinned to the paper's 2016-era testbed CPUs, NOT the repo
  // default (which is calibrated to this host's SIMD kernels via
  // BENCH_gf.json) — fig9 reproduces the paper's hardware balance.
  net.gf_compute_bps = 1.5e9;
  net.xor_compute_bps = 6e9;
  // Heterogeneous racks (paper Table III): A1 hosts the slowest CPUs.
  net.rack_compute_multiplier.assign(num_racks, 1.0);
  if (num_racks >= 1) net.rack_compute_multiplier[0] = 0.5;
  if (num_racks >= 4) net.rack_compute_multiplier[3] = 0.8;
  return net;
}

}  // namespace

int main() {
  using namespace car;
  std::printf("== Figure 9: recovery time per lost chunk (CAR vs RR) ==\n");
  std::printf("flow-level simulation: 1 GbE node links, 5x oversubscribed "
              "core, %zu stripes,\n%d runs per point\n\n", kStripes, kRuns);

  for (const auto& cfg : cluster::paper_configs()) {
    const auto net = testbed_net(cfg.topology().num_racks());
    util::TextTable table({"chunk size", "RR time/chunk (s)",
                           "CAR time/chunk (s)", "speedup"});
    for (const std::uint64_t mib : kChunkSizesMiB) {
      const std::uint64_t chunk_size = mib * util::kMiB;
      util::RunningStats rr_time, car_time;
      for (int run = 0; run < kRuns; ++run) {
        util::Rng rng(0xF1900000ULL + run * 613 + mib);
        const auto placement = cluster::Placement::random(
            cfg.topology(), cfg.k, cfg.m, kStripes, rng);
        const auto scenario = cluster::inject_random_failure(placement, rng);
        const auto censuses = recovery::build_censuses(placement, scenario);
        const rs::Code code(cfg.k, cfg.m);
        const double lost = static_cast<double>(scenario.lost.size());

        const auto rr = recovery::plan_rr(placement, censuses, rng);
        const auto rr_plan = recovery::build_rr_plan(
            placement, code, rr, chunk_size, scenario.failed_node);
        rr_time.add(
            simnet::simulate_plan(placement.topology(), rr_plan, net)
                .makespan_s / lost);

        const auto balanced =
            recovery::balance_greedy(placement, censuses, {50});
        const auto car_plan = recovery::build_car_plan(
            placement, code, balanced.solutions, chunk_size,
            scenario.failed_node);
        car_time.add(
            simnet::simulate_plan(placement.topology(), car_plan, net)
                .makespan_s / lost);
      }
      table.add_row({std::to_string(mib) + " MiB",
                     util::fmt_double(rr_time.mean(), 3) + " +- " +
                         util::fmt_double(rr_time.sample_stddev(), 3),
                     util::fmt_double(car_time.mean(), 3) + " +- " +
                         util::fmt_double(car_time.sample_stddev(), 3),
                     util::fmt_percent(1.0 - car_time.mean() /
                                                 rr_time.mean())});
    }
    std::printf("-- %s %s, RS(%zu,%zu) --\n", cfg.name.c_str(),
                cfg.topology().to_string().c_str(), cfg.k, cfg.m);
    std::printf("%s\n", table.to_string().c_str());

    // Cross-check on the real-byte emulator under the virtual clock: every
    // transfer moves actual data through the link reservations and every
    // decode runs the real GF kernels, yet the sweep finishes in
    // host-milliseconds and the reported times are deterministic.
    util::RunningStats emul_speedup;
    for (int run = 0; run < kEmulRuns; ++run) {
      util::Rng rng(0xF1910000ULL + run * 271);
      const auto placement = cluster::Placement::random(
          cfg.topology(), cfg.k, cfg.m, kStripes, rng);
      const auto scenario = cluster::inject_random_failure(placement, rng);
      const auto censuses = recovery::build_censuses(placement, scenario);
      const rs::Code code(cfg.k, cfg.m);

      emul::EmulConfig emul_cfg;
      emul_cfg.node_bps = 125e6;
      emul_cfg.oversubscription = 5.0;

      auto recover = [&](const recovery::RecoveryPlan& plan) {
        emul::Cluster cluster(cfg.topology(), emul_cfg);
        util::Rng data_rng(rng.next_below(1ull << 62));
        cluster.populate(placement, code, kEmulChunk, data_rng);
        cluster.erase_node(scenario.failed_node);
        return cluster.execute(plan).wall_s;
      };

      const auto rr = recovery::plan_rr(placement, censuses, rng);
      const double rr_s = recover(recovery::build_rr_plan(
          placement, code, rr, kEmulChunk, scenario.failed_node));
      const auto balanced = recovery::balance_greedy(placement, censuses,
                                                     {50});
      const double car_s = recover(recovery::build_car_plan(
          placement, code, balanced.solutions, kEmulChunk,
          scenario.failed_node));
      emul_speedup.add(1.0 - car_s / rr_s);
    }
    std::printf("virtual-clock emulator cross-check (%s chunks, %d runs): "
                "CAR %s faster than RR\n\n",
                util::format_bytes(kEmulChunk).c_str(), kEmulRuns,
                util::fmt_percent(emul_speedup.mean()).c_str());
  }
  std::printf("Paper reference: CAR cuts 53.8%% of recovery time in CFS2 "
              "@8MiB; recovery time\ngrows with both k and chunk size, and "
              "CAR's advantage widens with k.\n");
  return 0;
}
