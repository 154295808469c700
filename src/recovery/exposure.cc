#include "recovery/exposure.h"

#include <algorithm>
#include <iterator>

#include "recovery/multi.h"
#include "recovery/solutions.h"
#include "util/check.h"
#include "util/for_each_shard.h"

namespace car::recovery {

namespace {

std::uint64_t key_of(cluster::StripeId stripe, std::size_t chunk_index) {
  // chunk_index < k + m is tiny; 16 bits is generous and keeps the key a
  // single word.
  CAR_CHECK(chunk_index < (1u << 16),
            "RecoveredSet: chunk index exceeds the 16-bit key range");
  return (static_cast<std::uint64_t>(stripe) << 16) |
         static_cast<std::uint64_t>(chunk_index);
}

}  // namespace

void RecoveredSet::mark(cluster::StripeId stripe, std::size_t chunk_index) {
  keys_.insert(key_of(stripe, chunk_index));
}

bool RecoveredSet::contains(cluster::StripeId stripe,
                            std::size_t chunk_index) const {
  return keys_.contains(key_of(stripe, chunk_index));
}

namespace {

/// Serial exposure-scan core over one contiguous stripe range.
void exposure_range(const cluster::Placement& placement,
                    const std::vector<char>& failed,
                    cluster::NodeId replacement, const RecoveredSet& recovered,
                    cluster::StripeId begin, cluster::StripeId end,
                    std::vector<StripeExposure>& out) {
  const auto& topology = placement.topology();
  const cluster::RackId home = topology.rack_of(replacement);
  for (cluster::StripeId s = begin; s < end; ++s) {
    StripeExposure exposure;
    exposure.stripe = s;
    std::size_t replicas_on_replacement = 0;
    const auto hosts = placement.stripe(s);
    for (std::size_t c = 0; c < hosts.size(); ++c) {
      const cluster::NodeId host = hosts[c];
      if (failed[host] == 0) continue;
      const bool safe = recovered.contains(s, c);
      if (!safe) exposure.exposed_chunks.push_back(c);
      // A replica published on the replacement is only visible to the
      // planner when the chunk's placement host IS the replacement; any
      // other recovered chunk is recomputed (identical bytes) by the next
      // plan that touches the stripe.
      if (safe && host == replacement) {
        ++replicas_on_replacement;
      } else {
        exposure.plan_chunks.push_back(c);
        exposure.plan_hosts.push_back(host);
      }
    }
    if (exposure.plan_chunks.empty()) continue;

    CAR_CHECK_LE(exposure.exposed_chunks.size(), placement.m(),
                 "build_exposure_census: stripe lost more than m chunks "
                 "with no live replica — data loss, unrecoverable");
    CAR_CHECK_LE(exposure.plan_chunks.size(), placement.m(),
                 "build_exposure_census: a re-plan would need to rebuild "
                 "more than m chunks of one stripe; recovered replicas on "
                 "the replacement cannot stand in for chunks hosted "
                 "elsewhere (see recovery/exposure.h)");
    exposure.tolerance_left = placement.m() - exposure.exposed_chunks.size();
    std::sort(exposure.plan_hosts.begin(), exposure.plan_hosts.end());
    exposure.plan_hosts.erase(
        std::unique(exposure.plan_hosts.begin(), exposure.plan_hosts.end()),
        exposure.plan_hosts.end());
    // Theorem 1 over the live chunks plus the replicas the planner sees,
    // counted only for the stripes that need a plan.
    RackCounts available;
    for (const cluster::NodeId host : hosts) {
      if (failed[host] == 0) available.add(topology.rack_of(host));
    }
    for (std::size_t i = 0; i < replicas_on_replacement; ++i) {
      available.add(home);
    }
    exposure.min_racks = min_racks_for(placement.k(), home, available.ranked());
    out.push_back(std::move(exposure));
  }
}

}  // namespace

std::vector<StripeExposure> build_exposure_census(
    const cluster::Placement& placement,
    const std::vector<cluster::NodeId>& failed_nodes,
    cluster::NodeId replacement, const RecoveredSet& recovered,
    std::size_t shards) {
  CAR_CHECK(shards >= 1, "build_exposure_census: shards must be >= 1");
  const auto& topology = placement.topology();
  CAR_CHECK(replacement < topology.num_nodes(),
            "build_exposure_census: replacement node id out of range");
  std::vector<char> failed(topology.num_nodes(), 0);
  for (const cluster::NodeId node : failed_nodes) {
    CAR_CHECK_LT(node, topology.num_nodes(),
                 "build_exposure_census: failed node id out of range");
    failed[node] = 1;
  }

  // Contiguous ranges concatenated in range order — bit-identical to the
  // serial scan for every shard count (RecoveredSet reads are const).
  const cluster::StripeId n = placement.num_stripes();
  shards = std::min<std::size_t>(shards, std::max<cluster::StripeId>(n, 1));
  std::vector<std::vector<StripeExposure>> parts(shards);
  util::for_each_shard(shards, [&](std::size_t shard) {
    exposure_range(placement, failed, replacement, recovered,
                   n * shard / shards, n * (shard + 1) / shards, parts[shard]);
  });
  if (shards == 1) return std::move(parts.front());
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<StripeExposure> out;
  out.reserve(total);
  for (auto& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(out));
  }
  return out;
}

}  // namespace car::recovery
