// Differential test of the sparse multi-failure census and balance_multi
// against a dense reference: the per-rack census vector and the O(racks)
// ranking loop the sparse core replaced, kept here so the two can never
// drift apart.  Rack sets, picks, the λ trace and the substitution count
// must be identical on randomized placements, rack sizes and failures.
// The stripe-list census is checked against the filtered full census the
// same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "recovery/multi.h"
#include "util/check.h"
#include "util/rng.h"

namespace car::recovery {
namespace {

using cluster::Placement;
using cluster::RackId;
using Dense = std::vector<std::size_t>;

// --- dense reference -------------------------------------------------------

Dense dense_surviving(const Placement& p, const MultiStripeCensus& census) {
  Dense out(p.topology().num_racks(), 0);
  const auto hosts = p.stripe(census.stripe);
  for (std::size_t c = 0; c < hosts.size(); ++c) {
    if (!std::binary_search(census.lost_chunks.begin(),
                            census.lost_chunks.end(), c)) {
      ++out[p.topology().rack_of(hosts[c])];
    }
  }
  return out;
}

/// Non-home racks with chunks: stable sort of ascending ids by count.
std::vector<RackId> ref_ranked(RackId home, const Dense& a) {
  std::vector<RackId> racks;
  for (RackId i = 0; i < a.size(); ++i) {
    if (i != home && a[i] > 0) racks.push_back(i);
  }
  std::stable_sort(racks.begin(), racks.end(),
                   [&](RackId x, RackId y) { return a[x] > a[y]; });
  return racks;
}

std::size_t ref_min_racks(std::size_t k, RackId home, const Dense& a) {
  const auto ranked = ref_ranked(home, a);
  std::size_t gathered = a[home];
  std::size_t d = 0;
  while (gathered < k) gathered += a[ranked[d++]];
  return d;
}

bool ref_valid(std::size_t k, RackId home, const Dense& a,
               const std::vector<RackId>& set) {
  if (set.size() != ref_min_racks(k, home, a)) return false;
  std::size_t sum = a[home];
  for (const RackId rack : set) {
    if (rack == home || a[rack] == 0 ||
        std::count(set.begin(), set.end(), rack) != 1) {
      return false;
    }
    sum += a[rack];
  }
  return sum >= k;
}

double ref_lambda(const Dense& t, RackId home) {
  std::size_t total = 0;
  std::size_t max = 0;
  for (RackId i = 0; i < t.size(); ++i) {
    total += t[i];
    if (i != home) max = std::max(max, t[i]);
  }
  if (total == 0 || t.size() < 2) return 1.0;
  return static_cast<double>(max) /
         (static_cast<double>(total) / static_cast<double>(t.size() - 1));
}

MultiStripeSolution ref_materialize(const Placement& p,
                                    const MultiStripeCensus& census,
                                    const Dense& a,
                                    const std::vector<RackId>& set) {
  MultiStripeSolution solution{census.stripe, census.lost_chunks,
                               RackSet{set}, {}, {}};
  std::size_t needed = census.k;
  auto take_from = [&](RackId rack) {
    auto indices = p.chunk_indices_in_rack(census.stripe, rack);
    std::erase_if(indices, [&](std::size_t c) {
      return std::binary_search(census.lost_chunks.begin(),
                                census.lost_chunks.end(), c);
    });
    if (indices.empty()) return;
    indices.resize(std::min(indices.size(), needed));
    needed -= indices.size();
    solution.picks.push_back(
        {rack, static_cast<std::uint32_t>(solution.chunks.size()),
         static_cast<std::uint32_t>(indices.size())});
    solution.chunks.insert(solution.chunks.end(), indices.begin(),
                           indices.end());
  };
  take_from(census.replacement_rack);
  std::vector<RackId> order = set;
  std::stable_sort(order.begin(), order.end(),
                   [&](RackId x, RackId y) { return a[x] > a[y]; });
  for (const RackId rack : order) take_from(rack);
  return solution;
}

MultiBalanceResult ref_balance(const Placement& p,
                               const std::vector<MultiStripeCensus>& censuses,
                               std::size_t iterations) {
  const RackId home = censuses.front().replacement_rack;
  std::vector<Dense> avail;
  std::vector<std::vector<RackId>> chosen;
  Dense t(p.topology().num_racks(), 0);
  for (const auto& census : censuses) {
    avail.push_back(dense_surviving(p, census));
    auto set = ref_ranked(home, avail.back());
    set.resize(ref_min_racks(census.k, home, avail.back()));
    std::sort(set.begin(), set.end());
    for (const RackId rack : set) t[rack] += census.lost_count();
    chosen.push_back(std::move(set));
  }
  MultiBalanceResult result;
  result.lambda_trace.push_back(ref_lambda(t, home));
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    RackId heaviest = home;
    for (RackId i = 0; i < t.size(); ++i) {
      if (i != home && (heaviest == home || t[i] > t[heaviest])) heaviest = i;
    }
    std::vector<RackId> lighter;
    for (RackId i = 0; i < t.size(); ++i) {
      if (i != home && i != heaviest && t[i] < t[heaviest]) {
        lighter.push_back(i);
      }
    }
    std::stable_sort(lighter.begin(), lighter.end(),
                     [&](RackId x, RackId y) { return t[x] < t[y]; });
    bool substituted = false;
    for (std::size_t l = 0; l < lighter.size() && !substituted; ++l) {
      const RackId target = lighter[l];
      for (std::size_t j = 0; j < censuses.size() && !substituted; ++j) {
        const std::size_t weight = censuses[j].lost_count();
        auto& set = chosen[j];
        if (t[heaviest] < t[target] + 2 * weight ||
            std::count(set.begin(), set.end(), heaviest) == 0 ||
            std::count(set.begin(), set.end(), target) != 0) {
          continue;
        }
        auto swapped = set;
        std::replace(swapped.begin(), swapped.end(), heaviest, target);
        std::sort(swapped.begin(), swapped.end());
        if (!ref_valid(censuses[j].k, home, avail[j], swapped)) continue;
        set = std::move(swapped);
        t[heaviest] -= weight;
        t[target] += weight;
        substituted = true;
      }
    }
    if (!substituted) break;
    ++result.substitutions;
    result.lambda_trace.push_back(ref_lambda(t, home));
  }
  for (std::size_t j = 0; j < censuses.size(); ++j) {
    result.solutions.push_back(
        ref_materialize(p, censuses[j], avail[j], chosen[j]));
  }
  return result;
}

// --- randomized inputs -----------------------------------------------------

struct Case {
  Placement placement;
  MultiFailureScenario scenario;
};

/// A random topology with non-uniform rack sizes, one of the three
/// placement policies, and a failure of part or all of one rack (so every
/// stripe loses 1..m chunks).  The rebuild target is the first failed node,
/// or a live node elsewhere or in the failed rack, whose rack then holds
/// survivors.  Every tenth case is a wide code (k+m = 18 over 24 racks) so
/// sparse censuses outgrow RackCounts' inline entries.
Case make_case(util::Rng& rng, int trial) {
  const bool wide = trial % 10 == 9;
  const std::size_t m = wide ? 4 : 1 + rng.next_below(3);
  const std::size_t k = wide ? 14 : 2 + rng.next_below(5);
  std::vector<std::size_t> sizes(wide ? 24 : 3 + rng.next_below(10));
  std::size_t capacity = 0;
  for (auto& size : sizes) {
    size = wide ? 2 : 1 + rng.next_below(5);
    capacity += std::min(size, m);
  }
  // Add full-quota racks until a stripe fits under the rack quota.
  for (; capacity < k + m; capacity += m) sizes.push_back(m);
  cluster::Topology topology(sizes);
  const std::size_t stripes = 40 + rng.next_below(80);
  Placement placement =
      trial % 3 == 0   ? Placement::random(topology, k, m, stripes, rng)
      : trial % 3 == 1 ? Placement::compact(topology, k, m, stripes, rng)
                       : Placement::spread(topology, k, m, stripes, rng);

  const RackId failed_rack = rng.next_below(sizes.size());
  auto nodes = topology.nodes_in_rack(failed_rack);
  rng.shuffle(nodes);
  const std::size_t lost = 1 + rng.next_below(nodes.size());
  std::vector<cluster::NodeId> victims(nodes.begin(), nodes.begin() + lost);
  std::vector<cluster::NodeId> live(nodes.begin() + lost, nodes.end());
  switch (rng.next_below(3)) {
    case 0:
      break;
    case 1: {
      const RackId other = (failed_rack + 1) % sizes.size();
      return {placement,
              make_multi_failure_onto(placement, victims,
                                      topology.rack_range(other).first)};
    }
    default:
      if (!live.empty()) {
        return {placement,
                make_multi_failure_onto(placement, victims, live.front())};
      }
  }
  return {placement, make_multi_failure(placement, victims)};
}

void expect_same(const MultiBalanceResult& got, const MultiBalanceResult& want,
                 int trial) {
  EXPECT_EQ(got.substitutions, want.substitutions) << "trial " << trial;
  EXPECT_EQ(got.lambda_trace, want.lambda_trace) << "trial " << trial;
  ASSERT_EQ(got.solutions.size(), want.solutions.size()) << "trial " << trial;
  for (std::size_t j = 0; j < got.solutions.size(); ++j) {
    const auto& a = got.solutions[j];
    const auto& b = want.solutions[j];
    ASSERT_EQ(a.stripe, b.stripe) << "trial " << trial;
    EXPECT_EQ(a.lost_chunks, b.lost_chunks) << "trial " << trial;
    EXPECT_EQ(a.rack_set, b.rack_set)
        << "trial " << trial << " stripe " << a.stripe;
    EXPECT_EQ(a.picks, b.picks) << "trial " << trial << " stripe " << a.stripe;
    EXPECT_EQ(a.chunks, b.chunks)
        << "trial " << trial << " stripe " << a.stripe;
  }
}

TEST(SparseBalanceDifferential, CensusMatchesDenseRanking) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const Case c = make_case(rng, trial);
    const auto censuses =
        build_multi_censuses(c.placement, c.scenario, 1 + trial % 3);
    for (const auto& census : censuses) {
      const Dense a = dense_surviving(c.placement, census);
      std::vector<RackCount> want;
      for (RackId rack = 0; rack < a.size(); ++rack) {
        if (a[rack] > 0) {
          want.push_back({static_cast<std::uint32_t>(rack),
                          static_cast<std::uint32_t>(a[rack])});
        }
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const RackCount& x, const RackCount& y) {
                         return x.count > y.count;
                       });
      const auto got = census.surviving.ranked();
      EXPECT_TRUE(std::ranges::equal(got, want))
          << "trial " << trial << " stripe " << census.stripe;
      EXPECT_GE(census.lost_count(), 1u);
      EXPECT_LE(census.lost_count(), c.placement.m());
    }
  }
}

TEST(SparseBalanceDifferential, BalanceMatchesDenseReference) {
  util::Rng rng(777);
  int compared = 0;
  bool spilled = false;
  for (int trial = 0; trial < 60; ++trial) {
    const Case c = make_case(rng, trial);
    const auto censuses = build_multi_censuses(c.placement, c.scenario);
    if (censuses.empty()) continue;
    for (const auto& census : censuses) {
      spilled |= census.surviving.ranked().size() > RackCounts::kInline;
    }
    for (const std::size_t iterations : {0u, 50u}) {
      expect_same(balance_multi(c.placement, censuses, iterations),
                  ref_balance(c.placement, censuses, iterations), trial);
      ++compared;
    }
  }
  EXPECT_GE(compared, 100);
  EXPECT_TRUE(spilled) << "no case exercised the spilled census";
}

// --- stripe-list census ------------------------------------------------------

void expect_same_census(const MultiStripeCensus& got,
                        const MultiStripeCensus& want, int trial) {
  EXPECT_EQ(got.stripe, want.stripe) << "trial " << trial;
  EXPECT_EQ(got.lost_chunks, want.lost_chunks)
      << "trial " << trial << " stripe " << got.stripe;
  EXPECT_EQ(got.replacement_rack, want.replacement_rack)
      << "trial " << trial << " stripe " << got.stripe;
  EXPECT_EQ(got.k, want.k) << "trial " << trial << " stripe " << got.stripe;
  EXPECT_TRUE(
      std::ranges::equal(got.surviving.ranked(), want.surviving.ranked()))
      << "trial " << trial << " stripe " << got.stripe;
}

// The per-batch census of the rebuild coordinator: for random placements,
// failures and subsets of the affected stripes (empty and complete ones
// included), the list census is the full census filtered to the list, at
// every full-census shard count.
TEST(ListCensusDifferential, EqualsFilteredFullCensus) {
  util::Rng rng(9090);
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Case c = make_case(rng, trial);
    const auto full =
        build_multi_censuses(c.placement, c.scenario, 1 + trial % 3);
    // Keep each affected stripe with probability keep/4: 0 gives the empty
    // list, 4 the whole affected set.
    const std::size_t keep = trial % 5;
    std::vector<cluster::StripeId> list;
    std::vector<const MultiStripeCensus*> want;
    for (const MultiStripeCensus& census : full) {
      if (rng.next_below(4) < keep) {
        list.push_back(census.stripe);
        want.push_back(&census);
      }
    }
    const auto got = build_multi_censuses(c.placement, c.scenario,
                                          std::span<const cluster::StripeId>(
                                              list));
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_census(got[i], *want[i], trial);
      ++compared;
    }
  }
  EXPECT_GE(compared, 500);
}

TEST(ListCensus, RejectsMalformedListsNamingTheStripe) {
  const cluster::Topology topology({3, 3, 3, 3});
  util::Rng rng(5);
  const Placement placement = Placement::random(topology, 3, 2, 60, rng);
  const MultiFailureScenario scenario = make_multi_failure(placement, {0});
  const auto full = build_multi_censuses(placement, scenario);
  ASSERT_GE(full.size(), 2u);
  const cluster::StripeId a = full[0].stripe;
  const cluster::StripeId b = full[1].stripe;
  cluster::StripeId untouched = 0;
  while (untouched == a || untouched == b ||
         std::ranges::any_of(full, [&](const MultiStripeCensus& census) {
           return census.stripe == untouched;
         })) {
    ++untouched;
  }
  ASSERT_LT(untouched, placement.num_stripes());

  const auto expect_rejected = [&](std::vector<cluster::StripeId> list,
                                   const std::string& needle) {
    try {
      build_multi_censuses(placement, scenario,
                           std::span<const cluster::StripeId>(list));
      ADD_FAILURE() << "expected CheckError mentioning \"" << needle << "\"";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_rejected({b, a}, "stripe " + std::to_string(a) + " follows stripe " +
                              std::to_string(b));
  expect_rejected({a, a}, "stripe " + std::to_string(a) + " follows stripe " +
                              std::to_string(a));
  expect_rejected({a, 60}, "stripe 60 is out of range");
  expect_rejected({untouched},
                  "stripe " + std::to_string(untouched) + " loses no chunk");
  EXPECT_TRUE(build_multi_censuses(placement, scenario,
                                   std::span<const cluster::StripeId>())
                  .empty());
}

}  // namespace
}  // namespace car::recovery
