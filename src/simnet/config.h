// Network and compute model parameters for the flow-level simulator.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/check.h"

namespace car::simnet {

/// Bandwidth-diverse CFS fabric (paper §I–II): every node hangs off its
/// top-of-rack switch with a dedicated link; the ToR's core uplink is
/// oversubscribed, making cross-rack bandwidth the scarce resource.
struct NetConfig {
  /// Node <-> ToR link rate, bytes/second, full duplex (default ~1 GbE).
  double node_bps = 125e6;

  /// Core oversubscription factor: rack uplink/downlink capacity is
  /// (nodes-in-rack * node_bps) / oversubscription unless overridden.
  double oversubscription = 5.0;

  /// Optional absolute rack uplink/downlink rate override (bytes/second).
  std::optional<double> rack_link_bps;

  /// Fixed propagation/forwarding latency added per traversed link before a
  /// transfer's bytes start flowing (0 = ideal fabric).  Cross-rack paths
  /// traverse four links, intra-rack paths two.
  double per_hop_latency_s = 0.0;

  /// Fraction of every link's capacity consumed by competing foreground
  /// traffic (0 = idle cluster, 0.5 = half the fabric is busy).  Must be in
  /// [0, 1).
  double background_load = 0.0;

  /// Per-node compute throughput for GF multiply-accumulate, bytes/second.
  /// Calibrated against the dispatched SIMD kernels (BENCH_gf.json:
  /// mul_region_acc on the active kernel at 1 MiB measured ~1.92e10 B/s on
  /// an AVX2 host; forced-scalar measures ~2.6e9).  Re-derive with
  /// `bench/micro_gf --json` when hardware or kernels change.
  double gf_compute_bps = 1.9e10;

  /// Per-node compute throughput for pure XOR combining, bytes/second
  /// (BENCH_gf.json: xor_region at 1 MiB, ~2.4e10 B/s on an AVX2 host).
  double xor_compute_bps = 2.4e10;

  /// Per-rack compute speed multipliers (heterogeneous hardware, paper
  /// Table III).  Empty means 1.0 everywhere; otherwise must have one entry
  /// per rack.
  std::vector<double> rack_compute_multiplier;

  void validate(std::size_t num_racks) const {
    const auto check_rate = [](double rate, const char* field) {
      CAR_CHECK(rate > 0 && std::isfinite(rate),
                std::string("NetConfig: ") + field +
                    " must be positive and finite");
    };
    check_rate(node_bps, "node_bps");
    check_rate(oversubscription, "oversubscription");
    check_rate(gf_compute_bps, "gf_compute_bps");
    check_rate(xor_compute_bps, "xor_compute_bps");
    if (rack_link_bps) check_rate(*rack_link_bps, "rack_link_bps");
    CAR_CHECK(per_hop_latency_s >= 0 && std::isfinite(per_hop_latency_s),
              "NetConfig: per_hop_latency_s must be non-negative and finite");
    CAR_CHECK(background_load >= 0 && background_load < 1.0,
              "NetConfig: background_load must be in [0, 1)");
    CAR_CHECK(rack_compute_multiplier.empty() ||
                  rack_compute_multiplier.size() == num_racks,
              "NetConfig: rack_compute_multiplier arity mismatch");
    for (double m : rack_compute_multiplier) {
      CAR_CHECK(m > 0 && std::isfinite(m),
                "NetConfig: compute multipliers must be positive and finite");
    }
  }

  [[nodiscard]] double compute_multiplier(std::size_t rack) const noexcept {
    return rack_compute_multiplier.empty() ? 1.0
                                           : rack_compute_multiplier[rack];
  }
};

}  // namespace car::simnet
