#include "recovery/solutions.h"

#include <gtest/gtest.h>

#include "cluster/configs.h"
#include "recovery/multi.h"
#include "util/rng.h"

namespace car::recovery {
namespace {

/// Theorem 1's inputs for one stripe: `chunks[i]` chunks in rack i, one of
/// them lost from `failed_rack`, which hosts the replacement.
struct Census {
  RackCounts surviving;
  cluster::RackId failed_rack = 0;
  std::size_t k = 0;

  [[nodiscard]] std::span<const RackCount> ranked() const noexcept {
    return surviving.ranked();
  }
};

Census make_census(std::vector<std::size_t> chunks,
                   cluster::RackId failed_rack, std::size_t k) {
  --chunks[failed_rack];
  Census census;
  census.failed_rack = failed_rack;
  census.k = k;
  for (cluster::RackId rack = 0; rack < chunks.size(); ++rack) {
    for (std::size_t c = 0; c < chunks[rack]; ++c) census.surviving.add(rack);
  }
  return census;
}

std::size_t min_intact_racks(const Census& c) {
  return min_racks_for(c.k, c.failed_rack, c.ranked());
}

std::vector<RackSet> enumerate_minimal_solutions(const Census& c) {
  return enumerate_rack_sets(c.k, c.failed_rack, c.ranked());
}

RackSet default_solution(const Census& c) {
  return default_rack_set(c.k, c.failed_rack, c.ranked());
}

bool is_valid_minimal(const Census& c, const RackSet& set) {
  return is_valid_minimal_for(c.k, c.failed_rack, c.ranked(), set);
}

TEST(Theorem1, PaperFigure4ExampleGivesDTwo) {
  // Censuses (4,1,3,2,4), failure in rack 0, k=8: survivors in A1 = 3,
  // ranked intact counts (4,3,2,1): 4+3+3 = 10 >= 8 -> d = 2.
  const auto census = make_census({4, 1, 3, 2, 4}, 0, 8);
  EXPECT_EQ(min_intact_racks(census), 2u);
}

TEST(Theorem1, ZeroIntactRacksWhenLocalSurvivorsSuffice) {
  // k=2, failed rack still has 3 survivors.
  const auto census = make_census({4, 1, 1}, 0, 2);
  EXPECT_EQ(min_intact_racks(census), 0u);
}

TEST(Theorem1, NeedsAllRacksWhenCountsAreSparse) {
  const auto census = make_census({1, 1, 1, 1, 1}, 0, 4);
  // Local survivors: 0; every intact rack holds exactly 1 -> d = 4.
  EXPECT_EQ(min_intact_racks(census), 4u);
}

TEST(Theorem1, UnrecoverableCensusThrows) {
  const auto census = make_census({1, 1}, 0, 4);  // only 1 survivor total
  EXPECT_THROW(min_intact_racks(census), std::invalid_argument);
}

TEST(Theorem1, MatchesBruteForceOnRandomCensuses) {
  util::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t r = 2 + rng.next_below(5);
    const std::size_t m = 1 + rng.next_below(5);
    std::vector<std::size_t> chunks(r);
    std::size_t total = 0;
    for (auto& c : chunks) {
      c = rng.next_below(m + 1);
      total += c;
    }
    // Pick a failed rack that holds at least one chunk.
    std::vector<cluster::RackId> occupied;
    for (cluster::RackId i = 0; i < r; ++i) {
      if (chunks[i] > 0) occupied.push_back(i);
    }
    if (occupied.empty()) continue;
    const auto f = occupied[rng.next_below(occupied.size())];
    if (total - 1 == 0) continue;
    const std::size_t k = 1 + rng.next_below(total - 1 + 1);
    if (total - 1 < k) continue;  // unrecoverable; covered elsewhere
    const auto census = make_census(chunks, f, k);

    // Brute force: try every subset of intact racks, find the smallest
    // cardinality that reaches k together with local survivors.
    std::size_t best = r;
    std::vector<cluster::RackId> intact;
    for (cluster::RackId i = 0; i < r; ++i) {
      if (i != f) intact.push_back(i);
    }
    for (std::size_t mask = 0; mask < (1u << intact.size()); ++mask) {
      std::size_t sum = chunks[f] - 1;
      std::size_t bits = 0;
      for (std::size_t b = 0; b < intact.size(); ++b) {
        if (mask & (1u << b)) {
          sum += chunks[intact[b]];
          ++bits;
        }
      }
      if (sum >= k) best = std::min(best, bits);
    }
    EXPECT_EQ(min_intact_racks(census), best)
        << "trial " << trial << " k=" << k;
  }
}

TEST(EnumerateMinimalSolutions, Figure4HasExactlyTheTwoPaperSolutions) {
  const auto census = make_census({4, 1, 3, 2, 4}, 0, 8);
  const auto solutions = enumerate_minimal_solutions(census);
  // d=2 subsets reaching 8-3=5 chunks: {A3,A5}=7, {A4,A5}=6, {A2,A5}=5,
  // {A3,A4}=5.  (Racks are 0-indexed: A2=1, A3=2, A4=3, A5=4.)
  ASSERT_EQ(solutions.size(), 4u);
  auto has = [&](std::vector<cluster::RackId> racks) {
    return std::find(solutions.begin(), solutions.end(), RackSet{racks}) !=
           solutions.end();
  };
  EXPECT_TRUE(has({2, 4}));
  EXPECT_TRUE(has({3, 4}));
  EXPECT_TRUE(has({1, 4}));
  EXPECT_TRUE(has({2, 3}));
  // The paper's §IV-B explicitly calls out {A3,A5} and {A3,A4} as valid.
}

TEST(EnumerateMinimalSolutions, AllReportedSolutionsAreValid) {
  util::Rng rng(32);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t r = 3 + rng.next_below(4);
    std::vector<std::size_t> chunks(r);
    std::size_t total = 0;
    for (auto& c : chunks) {
      c = rng.next_below(5);
      total += c;
    }
    if (chunks[0] == 0 || total < 3) continue;
    const std::size_t k = 2 + rng.next_below(total - 2);
    if (total - 1 < k) continue;
    const auto census = make_census(chunks, 0, k);
    const auto solutions = enumerate_minimal_solutions(census);
    ASSERT_FALSE(solutions.empty());
    for (const auto& set : solutions) {
      EXPECT_TRUE(is_valid_minimal(census, set));
    }
  }
}

TEST(EnumerateMinimalSolutions, DZeroReturnsSingleEmptySet) {
  const auto census = make_census({5, 2, 2}, 0, 3);
  const auto solutions = enumerate_minimal_solutions(census);
  ASSERT_EQ(solutions.size(), 1u);
  EXPECT_TRUE(solutions[0].racks.empty());
  EXPECT_TRUE(is_valid_minimal(census, solutions[0]));
}

TEST(DefaultSolution, PicksTheLargestRacks) {
  const auto census = make_census({4, 1, 3, 2, 4}, 0, 8);
  const auto set = default_solution(census);
  // Largest intact censuses: A5 (4) and A3 (3) -> racks {2, 4} sorted.
  EXPECT_EQ(set.racks, (std::vector<cluster::RackId>{2, 4}));
  EXPECT_TRUE(is_valid_minimal(census, set));
}

TEST(IsValidMinimal, RejectsBadSets) {
  const auto census = make_census({4, 1, 3, 2, 4}, 0, 8);
  EXPECT_FALSE(is_valid_minimal(census, RackSet{{1, 3}}));   // 1+2+3 < 8
  EXPECT_FALSE(is_valid_minimal(census, RackSet{{2, 3, 4}})); // not minimal
  EXPECT_FALSE(is_valid_minimal(census, RackSet{{0, 4}}));   // failed rack
  EXPECT_FALSE(is_valid_minimal(census, RackSet{{4, 4}}));   // duplicate
  EXPECT_FALSE(is_valid_minimal(census, RackSet{{4, 9}}));   // out of range
}

TEST(RackSet, ContainsWorks) {
  const RackSet set{{1, 3}};
  EXPECT_TRUE(set.contains(1));
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(2));
}

}  // namespace
}  // namespace car::recovery
