#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/graph/generators.hpp"
#include "ccov/util/prng.hpp"
#include "reference_greedy.hpp"

using namespace ccov::covering;

class GreedyParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GreedyParam, ProducesValidCover) {
  const auto cover = greedy_cover(GetParam());
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST_P(GreedyParam, RespectsLowerBound) {
  const std::uint32_t n = GetParam();
  EXPECT_GE(greedy_cover(n).size(), parity_lower_bound(n));
}

TEST_P(GreedyParam, WithinConstantFactorOfOptimal) {
  // Greedy is suboptimal but must stay within 2x of rho on these sizes
  // (the benchmark tables report the actual ratio).
  const std::uint32_t n = GetParam();
  EXPECT_LE(greedy_cover(n).size(), 2 * rho(n)) << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedyParam,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10, 12, 15, 20,
                                           25, 31));

// The greedy's pick order (lexicographically first uncovered chord, then
// the freshest C3/C4 through it with ascending-vertex tie-break) is pinned
// byte-for-byte: the bitset rewrite of the chord set must reproduce the
// std::set-based covers exactly, and these goldens catch any future drift.
TEST(GreedyGolden, CoverPinnedOnK10) {
  EXPECT_EQ(to_string(greedy_cover(10)),
            "(0 1 2 3)(0 2 4 5)(0 4 6 7)(0 6 8 9)(0 1 3 8)(1 4 7 8)"
            "(1 5 6 9)(1 2 6)(1 2 5 7)(2 7 9)(2 3 4 8)(3 5 8 9)(3 6 7)"
            "(4 5 9)");
}

TEST(GreedyGolden, DemandCoverPinnedOnStar8) {
  const auto cover =
      greedy_cover_demand(8, ccov::graph::star_graph(8));
  EXPECT_EQ(to_string(cover), "(0 1 2)(0 3 4)(0 5 6)(0 1 7)");
}

TEST(GreedyDemand, CoversSparseDemand) {
  ccov::graph::Graph demand(10);
  demand.add_edge(0, 5);
  demand.add_edge(2, 7);
  demand.add_edge(1, 2);
  const auto cover = greedy_cover_demand(10, demand);
  EXPECT_TRUE(validate_cover_against(cover, demand).ok);
  EXPECT_LE(cover.size(), 3u);
}

TEST(GreedyDemand, EmptyDemandEmptyCover) {
  ccov::graph::Graph demand(8);
  EXPECT_EQ(greedy_cover_demand(8, demand).size(), 0u);
}

TEST(GreedyDemand, OutOfRangeDemandVertexThrows) {
  // Graph::add_edge auto-grows the vertex set, so a demand built for a
  // larger instance can reach a smaller ring; the bitset is sized for n
  // and must reject it instead of indexing out of bounds.
  ccov::graph::Graph demand(5);
  demand.add_edge(0, 100);
  EXPECT_THROW(greedy_cover_demand(5, demand), std::invalid_argument);
}

TEST(GreedyDemand, MultigraphDemandCoveredWithMultiplicity) {
  ccov::graph::Graph demand(6);
  demand.add_edge(0, 3);
  demand.add_edge(0, 3);
  const auto cover = greedy_cover_demand(6, demand);
  // The greedy covers the demand's chord set: a repeated chord is one
  // uncovered chord, covered once. Validate against the simple demand.
  ccov::graph::Graph simple(6);
  simple.add_edge(0, 3);
  EXPECT_TRUE(validate_cover_against(cover, simple).ok);
}

// The word-parallel kernel against the ChordBitset greedy it replaced
// (tests/reference_greedy.hpp), cycle for cycle. The reference costs
// O(n^4) on K_n, minutes under sanitizers in one piece, so ring sizes
// are split into shards of similar cost. Together they cover K_n for
// n = 3..150 and random demands for n = 3..200, crossing the 63/64/65
// and 127/128/129 row-word boundaries. Shard i holds the ring sizes
// shard_lo(i)..kShardEnd[i].
constexpr std::uint32_t kShardEnd[] = {99, 114, 123, 131, 137, 142, 146, 200};

constexpr std::uint32_t shard_lo(int i) {
  return i == 0 ? 3 : kShardEnd[i - 1] + 1;
}

class GreedyOracle : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOracle, KnMatchesReference) {
  const std::uint32_t lo = shard_lo(GetParam()), hi = kShardEnd[GetParam()];
  for (std::uint32_t n = lo; n <= hi && n <= 150; ++n)
    ASSERT_EQ(to_string(greedy_cover(n)),
              to_string(reference::greedy_cover(n)))
        << n;
}

TEST_P(GreedyOracle, DemandsMatchReference) {
  const std::uint32_t lo = shard_lo(GetParam()), hi = kShardEnd[GetParam()];
  const auto same = [](std::uint32_t n, const ccov::graph::Graph& demand) {
    return to_string(greedy_cover_demand(n, demand)) ==
           to_string(reference::greedy_cover_demand(n, demand));
  };
  ccov::util::Xoshiro256 rng(17 + lo);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::uint32_t>(lo + rng.below(hi - lo + 1));
    const auto chords = rng.below(401);
    ccov::graph::Graph demand(n);
    for (std::uint64_t k = 0; k < chords; ++k) {
      const auto u = static_cast<Vertex>(rng.below(n));
      const auto v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      demand.add_edge(u, v);
      if (rng.below(8) == 0) demand.add_edge(v, u);  // repeated chord
    }
    ASSERT_TRUE(same(n, demand)) << "trial " << trial << " n " << n;
  }
  for (const std::uint32_t n : {3u, 4u, 5u, 63u, 64u, 65u, 128u, 200u}) {
    if (n < lo || n > hi) continue;
    EXPECT_TRUE(same(n, ccov::graph::Graph(n))) << n;
    EXPECT_TRUE(same(n, ccov::graph::star_graph(n))) << n;
    ccov::graph::Graph last(n);  // every chord ends at vertex n - 1
    for (Vertex u = 0; u + 1 < n; u += 2) last.add_edge(u, n - 1);
    EXPECT_TRUE(same(n, last)) << n;
  }
  for (const std::uint32_t n : {3u, 10u, 64u, 65u, 129u}) {
    if (n < lo || n > hi) continue;
    const auto complete = ccov::graph::complete_graph(n);
    EXPECT_TRUE(same(n, complete)) << n;
    EXPECT_EQ(to_string(greedy_cover_demand(n, complete)),
              to_string(greedy_cover(n)))
        << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, GreedyOracle, ::testing::Range(0, 8));

TEST(GreedyDemand, ChordOnRingOfTwoThrows) {
  // No C3/C4 exists on C_2, so its one chord can never be covered.
  ccov::graph::Graph demand(2);
  demand.add_edge(0, 1);
  EXPECT_THROW(greedy_cover_demand(2, demand), std::invalid_argument);
  EXPECT_THROW(greedy_cover(2), std::invalid_argument);
  EXPECT_EQ(greedy_cover(1).size(), 0u);
}

TEST(GreedyChords, ListMatchesTheGraphGreedyInAnyOrderWithRepeats) {
  // The chord list in its given order, both orientations and repeats
  // included, must give the cover of the Graph holding each chord once
  // (the demand Graph the engine used to build), and the same errors.
  ccov::util::Xoshiro256 rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::uint32_t>(3 + rng.below(150));
    std::vector<ccov::graph::Edge> chords;
    ccov::graph::Graph demand(n);
    const auto count = rng.below(200);
    for (std::uint64_t k = 0; k < count; ++k) {
      const auto u = static_cast<Vertex>(rng.below(n));
      const auto v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      chords.push_back({u, v});
      if (rng.below(4) == 0) chords.push_back({v, u});
      if (!demand.has_edge(u, v)) demand.add_edge(u, v);
    }
    ASSERT_EQ(to_string(greedy_cover_chords(n, chords)),
              to_string(greedy_cover_demand(n, demand)))
        << "trial " << trial << " n " << n;
  }
  EXPECT_EQ(greedy_cover_chords(8, {}).size(), 0u);

  const auto message = [](std::vector<ccov::graph::Edge> chords) {
    try {
      greedy_cover_chords(10, chords);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string loop = "Graph: self-loops not supported";
  const std::string range =
      "greedy_cover_demand: demand vertex out of range for ring size 10";
  EXPECT_EQ(message({{0, 1}, {3, 3}}), loop);
  // A self-loop is reported ahead of an earlier vertex off the ring, as
  // building the Graph reported it before the greedy saw any chord.
  EXPECT_EQ(message({{0, 4000000000u}, {3, 3}}), loop);
  EXPECT_EQ(message({{0, 1}, {0, 10}}), range);
  EXPECT_EQ(message({{4294967295u, 0}}), range);
}
