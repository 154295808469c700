#include "recovery/metrics.h"

#include <algorithm>

namespace car::recovery {

std::size_t TrafficSummary::total_chunks() const noexcept {
  std::size_t total = 0;
  for (std::size_t t : per_rack_chunks) total += t;
  return total;
}

double TrafficSummary::lambda() const noexcept {
  const std::size_t total = total_chunks();
  if (total == 0 || per_rack_chunks.size() < 2) return 1.0;
  std::size_t max = 0;
  for (cluster::RackId i = 0; i < per_rack_chunks.size(); ++i) {
    if (i == failed_rack) continue;
    max = std::max(max, per_rack_chunks[i]);
  }
  const double avg = static_cast<double>(total) /
                     static_cast<double>(per_rack_chunks.size() - 1);
  return static_cast<double>(max) / avg;
}

}  // namespace car::recovery
