#include "recovery/multi.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/for_each_shard.h"

namespace car::recovery {

bool MultiFailureScenario::is_failed(cluster::NodeId node) const noexcept {
  return std::find(failed_nodes.begin(), failed_nodes.end(), node) !=
         failed_nodes.end();
}

MultiFailureScenario make_multi_failure(const cluster::Placement& placement,
                                        std::vector<cluster::NodeId> nodes) {
  CAR_CHECK(!nodes.empty(), "make_multi_failure: no failed nodes");
  std::unordered_set<cluster::NodeId> seen;
  for (cluster::NodeId node : nodes) {
    CAR_CHECK_LT(node, placement.topology().num_nodes(),
                 "make_multi_failure: node id out of range");
    CAR_CHECK(seen.insert(node).second,
              "make_multi_failure: duplicate node id");
  }
  MultiFailureScenario scenario;
  scenario.replacement = nodes.front();
  scenario.replacement_rack = placement.topology().rack_of(nodes.front());
  scenario.failed_nodes = std::move(nodes);
  return scenario;
}

MultiFailureScenario make_multi_failure_onto(
    const cluster::Placement& placement, std::vector<cluster::NodeId> nodes,
    cluster::NodeId replacement) {
  CAR_CHECK_LT(replacement, placement.topology().num_nodes(),
               "make_multi_failure_onto: replacement node id out of range");
  auto scenario = make_multi_failure(placement, std::move(nodes));
  scenario.replacement = replacement;
  scenario.replacement_rack = placement.topology().rack_of(replacement);
  return scenario;
}

void RackCounts::add(cluster::RackId rack) {
  RackCount* entries = size_ > kInline ? spill_.data() : inline_.data();
  std::size_t at = 0;
  while (at < size_ && entries[at].rack != rack) ++at;
  if (at == size_) {
    if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
    if (size_ >= kInline) {
      spill_.push_back({});
      entries = spill_.data();
    }
    entries[at] = {static_cast<std::uint32_t>(rack), 0};
    ++size_;
  }
  ++entries[at].count;
  // The bumped entry can only move towards the front of the ranking.
  for (; at > 0 && ranks_before(entries[at], entries[at - 1]); --at) {
    std::swap(entries[at], entries[at - 1]);
  }
}

namespace {

bool lost_any(std::span<const cluster::NodeId> hosts,
              const std::vector<char>& failed) {
  return std::any_of(hosts.begin(), hosts.end(),
                     [&](cluster::NodeId host) { return failed[host] != 0; });
}

/// Census of stripe `s`, which lost at least one chunk.
void fill_census(const cluster::Placement& placement,
                 const MultiFailureScenario& scenario,
                 const std::vector<char>& failed, cluster::StripeId s,
                 MultiStripeCensus& census) {
  const auto& topology = placement.topology();
  const auto hosts = placement.stripe(s);
  census.stripe = s;
  census.replacement_rack = scenario.replacement_rack;
  census.k = placement.k();
  for (std::size_t c = 0; c < hosts.size(); ++c) {
    if (failed[hosts[c]] != 0) {
      census.lost_chunks.push_back(c);
    } else {
      census.surviving.add(topology.rack_of(hosts[c]));
    }
  }
  CAR_CHECK_LE(census.lost_chunks.size(), placement.m(),
               "build_multi_censuses: stripe " + std::to_string(s) +
                   " lost more than m chunks — beyond the code's fault "
                   "tolerance");
}

/// Failed-node bitset for `scenario`: is_failed() is a linear scan over
/// failed_nodes, and a census asks once per chunk — at datacenter scale (1M
/// stripes, a full rack of failed nodes) that linear scan dominates.
std::vector<char> failed_bitset(const cluster::Placement& placement,
                                const MultiFailureScenario& scenario) {
  const auto& topology = placement.topology();
  CAR_CHECK_LE(topology.num_racks(),
               std::size_t{std::numeric_limits<std::uint32_t>::max()},
               "build_multi_censuses: too many racks for a 32-bit rack id");
  std::vector<char> failed(topology.num_nodes(), 0);
  for (cluster::NodeId node : scenario.failed_nodes) {
    CAR_CHECK_LT(node, topology.num_nodes(),
                 "build_multi_censuses: failed node id out of range");
    failed[node] = 1;
  }
  return failed;
}

/// Census of each stripe in `stripes` (every one lost at least one chunk)
/// into the matching slot of `out` — the pass both census entry points end
/// in, so the per-stripe census and its <= m check live in one place.
void fill_censuses(const cluster::Placement& placement,
                   const MultiFailureScenario& scenario,
                   const std::vector<char>& failed,
                   std::span<const cluster::StripeId> stripes,
                   std::span<MultiStripeCensus> out) {
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    fill_census(placement, scenario, failed, stripes[i], out[i]);
  }
}

}  // namespace

std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::size_t shards) {
  CAR_CHECK(shards >= 1, "build_multi_censuses: shards must be >= 1");
  const std::vector<char> failed = failed_bitset(placement, scenario);
  const cluster::StripeId n = placement.num_stripes();
  shards = std::min<std::size_t>(shards, std::max<cluster::StripeId>(n, 1));
  // Two passes over contiguous stripe ranges, one per shard.  The first
  // lists each range's affected stripes, so the output is allocated once at
  // its exact size; the second builds every census in its final slot.
  // Ranges keep stripe order, so the result is the serial scan's verbatim
  // for every shard count.
  std::vector<std::vector<cluster::StripeId>> affected(shards);
  util::for_each_shard(shards, [&](std::size_t shard) {
    for (cluster::StripeId s = n * shard / shards;
         s < n * (shard + 1) / shards; ++s) {
      if (lost_any(placement.stripe(s), failed)) affected[shard].push_back(s);
    }
  });
  std::vector<std::size_t> first(shards + 1, 0);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    first[shard + 1] = first[shard] + affected[shard].size();
  }
  std::vector<MultiStripeCensus> out(first.back());
  util::for_each_shard(shards, [&](std::size_t shard) {
    fill_censuses(placement, scenario, failed, affected[shard],
                  std::span(out).subspan(first[shard], affected[shard].size()));
  });
  return out;
}

std::vector<MultiStripeCensus> build_multi_censuses(
    const cluster::Placement& placement, const MultiFailureScenario& scenario,
    std::span<const cluster::StripeId> stripes) {
  const std::vector<char> failed = failed_bitset(placement, scenario);
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const cluster::StripeId s = stripes[i];
    CAR_CHECK(i == 0 || stripes[i - 1] < s,
              "build_multi_censuses: stripe list must be strictly ascending, "
              "but stripe " + std::to_string(s) + " follows stripe " +
                  std::to_string(stripes[i - 1]));
    CAR_CHECK(s < placement.num_stripes(),
              "build_multi_censuses: stripe " + std::to_string(s) +
                  " is out of range for a " +
                  std::to_string(placement.num_stripes()) +
                  "-stripe placement");
    CAR_CHECK(lost_any(placement.stripe(s), failed),
              "build_multi_censuses: stripe " + std::to_string(s) +
                  " loses no chunk under the scenario");
  }
  std::vector<MultiStripeCensus> out(stripes.size());
  fill_censuses(placement, scenario, failed, stripes, out);
  return out;
}

namespace {

/// Fill in `solution` around the valid minimal set already in its
/// rack_set.  Pick sizes follow from the counts alone: the home rack's
/// survivors first, then the chosen racks in rank order, and only the last
/// pick can be trimmed.  That fixes each pick's range of `chunks`, and one
/// pass over the stripe's hosts drops every survivor into its rack's range
/// (ascending, so a trimmed pick keeps its lowest chunk indices).
void fill_picks(const cluster::Placement& placement,
                const MultiStripeCensus& census,
                MultiStripeSolution& solution) {
  const cluster::RackId home = census.replacement_rack;
  const std::size_t k = census.k;
  const auto ranked = census.surviving.ranked();
  solution.stripe = census.stripe;
  solution.lost_chunks = census.lost_chunks;
  std::vector<PickRange>& picks = solution.picks;
  picks.clear();
  picks.reserve(solution.rack_set.racks.size() + 1);

  std::size_t needed = k;
  auto open = [&](cluster::RackId rack, std::size_t available) {
    picks.push_back({rack, static_cast<std::uint32_t>(k - needed), 0});
    needed -= std::min(available, needed);
  };
  for (const RackCount& entry : ranked) {
    if (entry.rack == home) open(home, entry.count);
  }
  for (const RackCount& entry : ranked) {
    if (entry.rack == home || !solution.rack_set.contains(entry.rack)) {
      continue;
    }
    CAR_CHECK_STATE(needed > 0,
                    "materialize_multi: chosen rack contributes no chunk");
    open(entry.rack, entry.count);
  }
  CAR_CHECK_STATE(needed == 0, "materialize_multi: could not gather k chunks");

  solution.chunks.resize(k);
  const auto& topology = placement.topology();
  const auto hosts = placement.stripe(census.stripe);
  auto lost = census.lost_chunks.begin();
  for (std::size_t c = 0; c < hosts.size(); ++c) {
    if (lost != census.lost_chunks.end() && *lost == c) {
      ++lost;
      continue;
    }
    const cluster::RackId rack = topology.rack_of(hosts[c]);
    for (std::size_t p = 0; p < picks.size(); ++p) {
      if (picks[p].rack != rack) continue;
      const std::size_t end = p + 1 < picks.size() ? picks[p + 1].first : k;
      if (picks[p].first + picks[p].count < end) {
        solution.chunks[picks[p].first + picks[p].count++] = c;
      }
      break;
    }
  }
}

}  // namespace

MultiStripeSolution materialize_multi(const cluster::Placement& placement,
                                      const MultiStripeCensus& census,
                                      const RackSet& set) {
  CAR_CHECK(is_valid_minimal_for(census.k, census.replacement_rack,
                                 census.surviving.ranked(), set),
            "materialize_multi: rack set is not a valid minimal solution");
  MultiStripeSolution solution;
  solution.rack_set = set;
  std::sort(solution.rack_set.racks.begin(), solution.rack_set.racks.end());
  fill_picks(placement, census, solution);
  return solution;
}

namespace {

double lambda_of(const std::vector<std::size_t>& t, cluster::RackId home) {
  std::size_t total = 0;
  std::size_t max = 0;
  for (cluster::RackId i = 0; i < t.size(); ++i) {
    total += t[i];
    if (i != home) max = std::max(max, t[i]);
  }
  if (total == 0 || t.size() < 2) return 1.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(t.size() - 1);
  return static_cast<double>(max) / avg;
}

}  // namespace

MultiBalanceResult balance_multi(
    const cluster::Placement& placement,
    const std::vector<MultiStripeCensus>& censuses, std::size_t iterations) {
  CAR_CHECK(!censuses.empty(), "balance_multi: no stripes to recover");
  const cluster::RackId home = censuses.front().replacement_rack;
  const std::size_t num_racks = placement.topology().num_racks();

  // Each stripe's chosen set lives in its solution from the start: the
  // greedy edits it in place and fill_picks completes the solution around
  // it, so no per-stripe set is built twice.
  MultiBalanceResult result;
  result.solutions.resize(censuses.size());
  std::vector<std::size_t> t(num_racks, 0);
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    CAR_CHECK_EQ(censuses[j].replacement_rack, home,
                 "balance_multi: censuses disagree on the replacement rack");
    const RackSet& set = result.solutions[j].rack_set =
        default_rack_set(censuses[j].k, home, censuses[j].surviving.ranked());
    for (cluster::RackId rack : set.racks) t[rack] += censuses[j].lost_count();
  }
  result.lambda_trace.push_back(lambda_of(t, home));

  std::vector<cluster::RackId> lighter;
  lighter.reserve(num_racks);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    cluster::RackId heaviest = home;
    std::size_t heaviest_t = 0;
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i == home) continue;
      if (heaviest == home || t[i] > heaviest_t) {
        heaviest = i;
        heaviest_t = t[i];
      }
    }

    bool substituted = false;
    lighter.clear();
    for (cluster::RackId i = 0; i < num_racks; ++i) {
      if (i != home && i != heaviest && t[i] < heaviest_t) lighter.push_back(i);
    }
    std::stable_sort(lighter.begin(), lighter.end(),
                     [&](cluster::RackId a, cluster::RackId b) {
                       return t[a] < t[b];
                     });

    for (cluster::RackId target : lighter) {
      for (std::size_t j = 0; j < censuses.size() && !substituted; ++j) {
        // Moving `weight` partials must not push the target above the
        // (reduced) source: t_l - t_i >= 2 * weight keeps max monotone.
        const std::size_t weight = censuses[j].lost_count();
        if (heaviest_t < t[target] + 2 * weight) continue;
        auto& racks = result.solutions[j].rack_set.racks;
        const auto slot = std::find(racks.begin(), racks.end(), heaviest);
        if (slot == racks.end() ||
            std::find(racks.begin(), racks.end(), target) != racks.end()) {
          continue;
        }
        // Swap in place and undo when the result is not a valid minimal
        // set.  Validity is a direct predicate (size d, distinct non-home
        // racks with survivors, enough chunks) — exactly the membership
        // test in enumerate_rack_sets' output, without materialising the
        // combinatorial candidate list per stripe.
        *slot = target;
        if (!is_valid_minimal_for(censuses[j].k, home,
                                  censuses[j].surviving.ranked(),
                                  result.solutions[j].rack_set)) {
          *slot = heaviest;
          continue;
        }
        std::sort(racks.begin(), racks.end());
        t[heaviest] -= weight;
        t[target] += weight;
        substituted = true;
      }
      if (substituted) break;
    }
    if (!substituted) break;
    ++result.substitutions;
    result.lambda_trace.push_back(lambda_of(t, home));
  }

  for (std::size_t j = 0; j < censuses.size(); ++j) {
    fill_picks(placement, censuses[j], result.solutions[j]);
  }
  return result;
}

TrafficSummary multi_traffic(const std::vector<MultiStripeSolution>& solutions,
                             std::size_t num_racks,
                             cluster::RackId replacement_rack) {
  TrafficSummary summary;
  summary.failed_rack = replacement_rack;
  summary.per_rack_chunks.assign(num_racks, 0);
  for (const auto& solution : solutions) {
    for (cluster::RackId rack : solution.rack_set.racks) {
      summary.per_rack_chunks[rack] += solution.lost_chunks.size();
    }
  }
  return summary;
}

std::span<const std::uint8_t> RepairMemo::coeffs(
    const rs::Code& code, std::size_t lost,
    std::span<const std::size_t> survivors) {
  CAR_CHECK_LT(lost, std::size_t{64},
               "RepairMemo: lost chunk index does not fit the packed key");
  std::uint64_t mask = 0;
  std::size_t max_chunk = 0;
  for (const std::size_t chunk : survivors) {
    CAR_CHECK_LT(chunk, std::size_t{58},
                 "RepairMemo: survivor chunk index does not fit the packed "
                 "key's 58-bit set");
    mask |= std::uint64_t{1} << chunk;
    max_chunk = std::max(max_chunk, chunk);
  }
  const std::uint64_t key = (mask << 6) | static_cast<std::uint64_t>(lost);
  if (memo_.empty()) memo_.reserve(256);
  const auto [it, inserted] = memo_.try_emplace(key);
  if (inserted) {
    const auto y = code.repair_vector(lost, survivors);
    it->second.assign(max_chunk + 1, 0);
    for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
      it->second[survivors[pos]] = y[pos];
    }
  }
  return it->second;
}

std::vector<MultiRrSolution> plan_multi_rr(
    const cluster::Placement& placement,
    std::span<const MultiStripeCensus> censuses, util::Rng& rng) {
  std::vector<MultiRrSolution> out;
  out.reserve(censuses.size());
  for (const auto& census : censuses) {
    std::vector<std::size_t> survivors;
    for (std::size_t c = 0; c < placement.chunks_per_stripe(); ++c) {
      if (!std::binary_search(census.lost_chunks.begin(),
                              census.lost_chunks.end(), c)) {
        survivors.push_back(c);
      }
    }
    CAR_CHECK_GE(survivors.size(), census.k,
                 "plan_multi_rr: fewer than k survivors");
    rng.shuffle(survivors);
    survivors.resize(census.k);
    std::sort(survivors.begin(), survivors.end());
    out.push_back({census.stripe, census.lost_chunks, std::move(survivors)});
  }
  return out;
}

TrafficSummary multi_rr_traffic(const cluster::Placement& placement,
                                const std::vector<MultiRrSolution>& solutions,
                                cluster::RackId replacement_rack) {
  TrafficSummary summary;
  summary.failed_rack = replacement_rack;
  summary.per_rack_chunks.assign(placement.topology().num_racks(), 0);
  for (const auto& solution : solutions) {
    for (std::size_t chunk : solution.chunk_indices) {
      const auto host = placement.node_of(solution.stripe, chunk);
      const auto rack = placement.topology().rack_of(host);
      if (rack != replacement_rack) ++summary.per_rack_chunks[rack];
    }
  }
  return summary;
}

}  // namespace car::recovery
