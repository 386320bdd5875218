#include <gtest/gtest.h>

#include <set>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/drc.hpp"
#include "reference_construct.hpp"

using namespace ccov::covering;

// ---------- Theorem 1: odd n, full reproduction ----------

class OddConstructParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OddConstructParam, ValidCovering) {
  const auto cover = construct_odd_cover(GetParam());
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST_P(OddConstructParam, ExactlyRhoCycles) {
  const std::uint32_t n = GetParam();
  EXPECT_EQ(construct_odd_cover(n).size(), rho(n));
}

TEST_P(OddConstructParam, MatchesTheoremComposition) {
  const std::uint32_t n = GetParam();
  const auto cover = construct_odd_cover(n);
  const auto want = theorem_composition(n);
  EXPECT_EQ(count_c3(cover), want.c3);
  EXPECT_EQ(count_c4(cover), want.c4);
  EXPECT_EQ(count_c3(cover) + count_c4(cover), cover.size());  // only C3/C4
}

TEST_P(OddConstructParam, CoverIsExactPartition) {
  // For odd n the optimal covering covers every chord exactly once.
  const auto cover = construct_odd_cover(GetParam());
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.duplicate_coverage, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OddConstructParam,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 15, 17, 19, 21,
                                           25, 31, 41, 51, 75, 101, 151));

// ---------- Theorem 2: even n ----------

class EvenExactParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EvenExactParam, ValidOptimalAndTheoremComposition) {
  const std::uint32_t n = GetParam();
  const auto cover = construct_even_cover(n);
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(cover.size(), rho(n));
  if (n >= 6) {
    const auto want = theorem_composition(n);
    EXPECT_EQ(count_c3(cover), want.c3);
    EXPECT_EQ(count_c4(cover), want.c4);
  }
}

// Optimality (count == rho) is realised exactly for even n <= 12, where the
// exact solver has certified Theorem 2 (see solver_test.cpp).
INSTANTIATE_TEST_SUITE_P(SmallEven, EvenExactParam,
                         ::testing::Values(4, 6, 8, 10, 12));

class EvenGeneralParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EvenGeneralParam, ValidCovering) {
  const auto cover = construct_even_cover(GetParam());
  const auto rep = validate_cover(cover);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST_P(EvenGeneralParam, WithinDocumentedGapOfRho) {
  // For even n >= 14 the general construction uses (p^2+p)/2 cycles =
  // rho(n) + floor((p-1)/2): Theorem 2 is not reached constructively here.
  const std::uint32_t n = GetParam();
  const std::uint64_t p = n / 2;
  const auto cover = construct_even_cover(n);
  EXPECT_GE(cover.size(), rho(n));
  EXPECT_EQ(cover.size(), rho(n) + (p - 1) / 2);
  EXPECT_EQ(cover.size(), p * (p + 1) / 2);
}

TEST_P(EvenGeneralParam, EveryCycleSatisfiesDrc) {
  const std::uint32_t n = GetParam();
  const ccov::ring::Ring r(n);
  for (const auto& c : construct_even_cover(n).cycles)
    EXPECT_TRUE(satisfies_drc(r, c)) << to_string(c);
}

INSTANTIATE_TEST_SUITE_P(LargeEven, EvenGeneralParam,
                         ::testing::Values(14, 16, 18, 20, 26, 32, 40, 50, 64,
                                           100));

// ---------- Dispatcher ----------

TEST(BuildOptimal, DispatchesByParity) {
  EXPECT_EQ(build_optimal_cover(9).size(), rho(9));
  EXPECT_EQ(build_optimal_cover(8).size(), rho(8));
  EXPECT_THROW(build_optimal_cover(2), std::invalid_argument);
}

TEST(BuildOptimal, RejectsWrongParityCalls) {
  EXPECT_THROW(construct_odd_cover(8), std::invalid_argument);
  EXPECT_THROW(construct_even_cover(9), std::invalid_argument);
}

TEST(BuildOptimal, K4MatchesPaperExample) {
  // The covering for n = 4 is the one spelled out in the paper's text.
  const auto cover = build_optimal_cover(4);
  ASSERT_EQ(cover.size(), 3u);
  std::multiset<std::size_t> sizes;
  for (const auto& c : cover.cycles) sizes.insert(c.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{3, 3, 4}));
}

// ---------- Structural properties of the odd induction ----------

TEST(OddInduction, EachStepAddsPNewCycles) {
  // rho(2p+1) - rho(2p-1) = p; the inductive construction realises that.
  for (std::uint32_t p = 2; p <= 20; ++p) {
    const auto small = construct_odd_cover(2 * p - 1);
    const auto big = construct_odd_cover(2 * p + 1);
    EXPECT_EQ(big.size() - small.size(), p);
  }
}

TEST(OddInduction, NewVerticesCoveredByNewCycles) {
  // In the covering of K_{2p+1}, vertices 0 and p (the inserted u, v of the
  // last step) appear together in exactly p cycles.
  const std::uint32_t n = 17;
  const std::uint32_t p = (n - 1) / 2;
  const auto cover = construct_odd_cover(n);
  std::size_t both = 0;
  for (const auto& c : cover.cycles) {
    const bool has_u = std::find(c.begin(), c.end(), 0u) != c.end();
    const bool has_v = std::find(c.begin(), c.end(), p) != c.end();
    if (has_u && has_v) ++both;
  }
  EXPECT_EQ(both, p);
}

TEST(EvenFallback, AntipodalChordsEachCoveredOnce) {
  const std::uint32_t n = 20;
  const auto cover = construct_even_cover(n);
  std::map<std::pair<Vertex, Vertex>, int> anti;
  for (const auto& c : cover.cycles)
    for (const auto& [a, b] : cycle_chords(c))
      if (b - a == n / 2) anti[{a, b}]++;
  EXPECT_EQ(anti.size(), n / 2);
  for (const auto& [ch, cnt] : anti) EXPECT_EQ(cnt, 1) << ch.first;
}

// ---------- Oracle: the step-by-step constructions ----------

TEST(ConstructOracle, MatchesReferenceCycleForCycle) {
  // Odd n against the induction replayed with every relabelling, even
  // n >= 14 against the general construction as it was first written.
  for (std::uint32_t n = 3; n <= 401; ++n) {
    if (n % 2 == 0 && n < 14) continue;  // pinned below
    const RingCover want = n % 2 == 1 ? reference::construct_odd_cover(n)
                                      : reference::fallback_even(n);
    const RingCover got = build_optimal_cover(n);
    ASSERT_EQ(got.n, n);
    ASSERT_EQ(got.cycles, want.cycles) << "n=" << n;
  }
}

TEST(ConstructOracle, InsertionStepCoversArePinned) {
  // The two even covers built by an insertion step from a base cover.
  EXPECT_EQ(to_string(build_optimal_cover(8)),
            "(0 2 5)(1 4 6)(0 1 2 4)(0 1 5 6)(2 4 5 6)(0 3 4 7)(1 3 5 7)"
            "(2 3 7)(3 6 7)");
  EXPECT_EQ(to_string(build_optimal_cover(12)),
            "(0 1 2 6)(0 2 3 7)(0 3 4 8)(0 4 6 9)(0 1 6 10)(1 3 6 8)"
            "(1 4 7 9)(1 7 8 10)(2 4 9 10)(2 7 8 9)(2 3 8)(3 9 10)"
            "(4 6 7 10)(0 5 6 11)(1 5 7 11)(2 5 8 11)(3 5 9 11)(4 5 11)"
            "(5 10 11)");
}
