// Cross-rack repair traffic accounting and the load-balancing rate λ
// (paper §III).
//
// t_{i,f} counts chunk-sized units sent from rack A_i across the core toward
// the replacement (which lives in the failed rack A_f):
//   * CAR: one partially decoded chunk per accessed intact rack per lost
//     chunk (multi_traffic, recovery/multi.h);
//   * RR : one chunk per fetched survivor hosted outside A_f
//     (multi_rr_traffic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/types.h"

namespace car::recovery {

/// Per-rack cross-rack traffic summary for one recovery.
struct TrafficSummary {
  cluster::RackId failed_rack = 0;
  std::vector<std::size_t> per_rack_chunks;  // t_{i,f} in chunk units; the
                                             // failed rack's entry is 0

  /// Total cross-rack repair traffic in chunk units.
  [[nodiscard]] std::size_t total_chunks() const noexcept;

  /// Total cross-rack repair traffic in bytes for a given chunk size.
  [[nodiscard]] std::uint64_t total_bytes(std::uint64_t chunk_size) const noexcept {
    return static_cast<std::uint64_t>(total_chunks()) * chunk_size;
  }

  /// Load-balancing rate λ = max_i t_{i,f} / (Σ t_{i,f} / (r-1)).
  /// Returns 1.0 when there is no cross-rack traffic at all.
  [[nodiscard]] double lambda() const noexcept;
};

}  // namespace car::recovery
