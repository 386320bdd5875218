#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/cycle.hpp"
#include "ccov/covering/drc.hpp"
#include "ccov/ring/tiling.hpp"
#include "ccov/util/prng.hpp"

using namespace ccov::covering;
using ccov::ring::Ring;

TEST(SmallCycle, ConvertsToCycleAtBoundary) {
  const SmallCycle tri(4, 0, 2);
  EXPECT_EQ(tri.size(), 3u);
  EXPECT_EQ(tri.to_cycle(), (Cycle{4, 0, 2}));
  SmallCycle quad(1, 3, 5, 7);
  quad[0] = 0;
  EXPECT_EQ(quad.to_cycle(), (Cycle{0, 3, 5, 7}));
  EXPECT_EQ(SmallCycle(1, 2, 3), SmallCycle(1, 2, 3));
  EXPECT_FALSE(SmallCycle(1, 2, 3) == SmallCycle(1, 2, 3, 4));
}

TEST(ForEachChord, MatchesCycleChordsOnBothRepresentations) {
  const Cycle heap{3, 0, 4, 6};
  const SmallCycle inline_c(3, 0, 4, 6);
  std::vector<std::pair<Vertex, Vertex>> from_heap, from_small;
  for_each_chord(heap, [&](Vertex u, Vertex v) {
    from_heap.emplace_back(u, v);
  });
  for_each_chord(inline_c, [&](Vertex u, Vertex v) {
    from_small.emplace_back(u, v);
  });
  EXPECT_EQ(from_heap, cycle_chords(heap));
  EXPECT_EQ(from_small, cycle_chords(heap));
}

TEST(ChordBitsetTest, SetClearFirstCount) {
  ChordBitset bits(9);
  EXPECT_TRUE(bits.none());
  bits.set_all_chords();
  EXPECT_EQ(bits.count(), 9u * 8 / 2);
  Vertex a = 99, b = 99;
  ASSERT_TRUE(bits.first(a, b));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  bits.clear(0, 1);
  EXPECT_FALSE(bits.test(0, 1));
  ASSERT_TRUE(bits.first(a, b));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 2u);
  bits.set(0, 1);
  EXPECT_TRUE(bits.test(0, 1));
}

TEST(ChordBitsetTest, FirstScansAcrossWordBoundaries) {
  // n = 12 spans three 64-bit words; leave only a late chord set.
  ChordBitset bits(12);
  bits.set(10, 11);  // bit index 131, in the third word
  EXPECT_FALSE(bits.none());
  EXPECT_EQ(bits.count(), 1u);
  Vertex a = 0, b = 0;
  ASSERT_TRUE(bits.first(a, b));
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 11u);
  bits.clear(10, 11);
  EXPECT_FALSE(bits.first(a, b));
  EXPECT_TRUE(bits.none());
}

TEST(Cycle, ValidityChecks) {
  EXPECT_TRUE(is_valid_cycle(Cycle{0, 1, 2}, 5));
  EXPECT_FALSE(is_valid_cycle(Cycle{0, 1}, 5));          // too short
  EXPECT_FALSE(is_valid_cycle(Cycle{0, 1, 1}, 5));       // repeat
  EXPECT_FALSE(is_valid_cycle(Cycle{0, 1, 7}, 5));       // out of range
}

TEST(Cycle, ChordsNormalized) {
  auto ch = cycle_chords(Cycle{3, 0, 4});
  ASSERT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch[0], std::make_pair(0u, 3u));
  EXPECT_EQ(ch[1], std::make_pair(0u, 4u));
  EXPECT_EQ(ch[2], std::make_pair(3u, 4u));
}

TEST(Cycle, CanonicalRotationInvariant) {
  EXPECT_EQ(canonical(Cycle{2, 3, 0, 1}), canonical(Cycle{0, 1, 2, 3}));
}

TEST(Cycle, CanonicalReflectionInvariant) {
  EXPECT_EQ(canonical(Cycle{0, 3, 2, 1}), canonical(Cycle{0, 1, 2, 3}));
}

TEST(Cycle, CanonicalDistinguishesDifferentCycles) {
  // (0,1,2,3) and (0,2,1,3) are different 4-cycles.
  EXPECT_NE(canonical(Cycle{0, 1, 2, 3}), canonical(Cycle{0, 2, 1, 3}));
}

TEST(Cycle, ToStringFormat) {
  EXPECT_EQ(to_string(Cycle{1, 2, 3}), "(1 2 3)");
}

TEST(Drc, PaperExampleK4) {
  // The example from the paper: on C_4, the 4-cycle (1,3,4,2) [0-indexed
  // (0,2,3,1)] admits no edge-disjoint routing, while (1,2,3,4), (1,2,4)
  // and (1,3,4) do.
  Ring r(4);
  EXPECT_FALSE(satisfies_drc(r, Cycle{0, 2, 3, 1}));
  EXPECT_TRUE(satisfies_drc(r, Cycle{0, 1, 2, 3}));
  EXPECT_TRUE(satisfies_drc(r, Cycle{0, 1, 3}));
  EXPECT_TRUE(satisfies_drc(r, Cycle{0, 2, 3}));
}

TEST(Drc, TrianglesAlwaysRoutable) {
  // Any 3 distinct points on a circle appear in circular order.
  Ring r(9);
  ccov::util::Xoshiro256 g(123);
  for (int it = 0; it < 200; ++it) {
    Vertex a = static_cast<Vertex>(g.below(9));
    Vertex b = static_cast<Vertex>(g.below(9));
    Vertex c = static_cast<Vertex>(g.below(9));
    if (a == b || b == c || a == c) continue;
    EXPECT_TRUE(satisfies_drc(r, Cycle{a, b, c})) << a << b << c;
  }
}

TEST(Drc, ReversedOrderAccepted) {
  Ring r(8);
  EXPECT_TRUE(satisfies_drc(r, Cycle{5, 3, 1}));       // ccw order
  EXPECT_TRUE(satisfies_drc(r, Cycle{6, 4, 2, 0}));    // ccw quad
}

TEST(Drc, CrossingQuadRejected) {
  Ring r(8);
  EXPECT_FALSE(satisfies_drc(r, Cycle{0, 4, 1, 5}));
  EXPECT_FALSE(satisfies_drc(r, Cycle{0, 2, 1, 3}));
}

TEST(Drc, RouteTilesRingExactly) {
  Ring r(9);
  auto arcs = drc_route(r, Cycle{1, 4, 7});
  ASSERT_TRUE(arcs.has_value());
  EXPECT_TRUE(ccov::ring::is_exact_tiling(r, *arcs));
}

TEST(Drc, RouteOfReversedCycle) {
  Ring r(7);
  auto arcs = drc_route(r, Cycle{5, 3, 0});
  ASSERT_TRUE(arcs.has_value());
  EXPECT_TRUE(ccov::ring::is_exact_tiling(r, *arcs));
}

TEST(Drc, RouteRejectsNonCircular) {
  Ring r(6);
  EXPECT_FALSE(drc_route(r, Cycle{0, 2, 1, 4}).has_value());
}

TEST(Drc, WholeRingCycle) {
  Ring r(5);
  EXPECT_TRUE(satisfies_drc(r, Cycle{0, 1, 2, 3, 4}));
  auto arcs = drc_route(r, Cycle{0, 1, 2, 3, 4});
  ASSERT_TRUE(arcs.has_value());
  for (const auto& a : *arcs) EXPECT_EQ(a.len, 1u);
}

// Property: the O(k) circular-order characterisation agrees with the
// exponential brute-force oracle on every small cycle.
class DrcOracleParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DrcOracleParam, MatchesBruteForceOnAllTriangles) {
  const std::uint32_t n = GetParam();
  Ring r(n);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      for (Vertex c = b + 1; c < n; ++c)
        for (const Cycle& cyc : {Cycle{a, b, c}, Cycle{a, c, b}})
          EXPECT_EQ(satisfies_drc(r, cyc), satisfies_drc_bruteforce(r, cyc))
              << to_string(cyc) << " n=" << n;
}

TEST_P(DrcOracleParam, MatchesBruteForceOnRandomQuads) {
  const std::uint32_t n = GetParam();
  Ring r(n);
  ccov::util::Xoshiro256 g(n * 7919);
  int checked = 0;
  while (checked < 60) {
    Cycle c;
    for (int i = 0; i < 4; ++i) c.push_back(static_cast<Vertex>(g.below(n)));
    if (!is_valid_cycle(c, n)) continue;
    ++checked;
    EXPECT_EQ(satisfies_drc(r, c), satisfies_drc_bruteforce(r, c))
        << to_string(c) << " n=" << n;
  }
}

TEST_P(DrcOracleParam, MatchesBruteForceOnRandomPentagons) {
  const std::uint32_t n = GetParam();
  if (n < 5) return;
  Ring r(n);
  ccov::util::Xoshiro256 g(n * 104729);
  int checked = 0;
  while (checked < 40) {
    Cycle c;
    for (int i = 0; i < 5; ++i) c.push_back(static_cast<Vertex>(g.below(n)));
    if (!is_valid_cycle(c, n)) continue;
    ++checked;
    EXPECT_EQ(satisfies_drc(r, c), satisfies_drc_bruteforce(r, c))
        << to_string(c) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DrcOracleParam,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10, 11));
