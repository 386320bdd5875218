#include <gtest/gtest.h>

#include <set>

#include "ccov/baselines/c4_cover.hpp"
#include "ccov/baselines/emz.hpp"
#include "ccov/baselines/triple_cover.hpp"
#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "reference_validate.hpp"

using namespace ccov;
using namespace ccov::baselines;

namespace {

bool covers_all_pairs(std::uint32_t n,
                      const std::vector<covering::Cycle>& cycles) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> covered;
  for (const auto& c : cycles)
    for (const auto& ch : covering::cycle_chords(c)) covered.insert(ch);
  return covered.size() == static_cast<std::size_t>(n) * (n - 1) / 2;
}

}  // namespace

TEST(TripleCover, FortHedlundKnownValues) {
  EXPECT_EQ(triple_covering_number(3), 1u);
  EXPECT_EQ(triple_covering_number(4), 3u);
  EXPECT_EQ(triple_covering_number(5), 4u);
  EXPECT_EQ(triple_covering_number(6), 6u);
  EXPECT_EQ(triple_covering_number(7), 7u);   // Fano plane
  EXPECT_EQ(triple_covering_number(9), 12u);  // affine plane AG(2,3)
  EXPECT_EQ(triple_covering_number(13), 26u); // Steiner system S(2,3,13)
}

TEST(TripleCover, GreedyMatchesSetReference) {
  for (std::uint32_t n = 3; n <= 150; ++n)
    ASSERT_EQ(greedy_triple_cover(n),
              covering::reference::greedy_triple_cover(n))
        << n;
}

TEST(TripleCover, GreedyCoversEverything) {
  for (std::uint32_t n : {5u, 8u, 11u, 14u}) {
    const auto cover = greedy_triple_cover(n);
    EXPECT_TRUE(covers_all_pairs(n, cover)) << n;
    for (const auto& c : cover) EXPECT_EQ(c.size(), 3u);
  }
}

TEST(TripleCover, GreedyRespectsFortHedlund) {
  for (std::uint32_t n = 4; n <= 16; ++n)
    EXPECT_GE(greedy_triple_cover(n).size(), triple_covering_number(n)) << n;
}

TEST(TripleCover, MostTrianglesViolateDrc) {
  // The classical covering ignores routing: on a ring many of its
  // triangles are fine (all triangles are circularly ordered!), so this
  // baseline is about counts, not feasibility — verify the count gap
  // instead: C(n,3,2) ~ n^2/6 > rho(n) ~ n^2/8.
  for (std::uint32_t n : {15u, 21u, 33u}) {
    EXPECT_GT(triple_covering_number(n), covering::rho(n)) << n;
  }
}

TEST(TripleCover, AllTrianglesAreDrcFeasible) {
  // Sanity check of count_drc_feasible: triangles always satisfy the DRC.
  const auto cover = greedy_triple_cover(9);
  EXPECT_EQ(count_drc_feasible(9, cover), cover.size());
}

TEST(C4Cover, LowerBoundValues) {
  EXPECT_EQ(c4_covering_lower_bound(8), 8u);    // max(7, 8)
  EXPECT_EQ(c4_covering_lower_bound(9), 9u);    // 9*8/8 = 9
  EXPECT_GE(c4_covering_lower_bound(10), 12u);  // ceil(90/8)=12, vertex 13?
}

TEST(C4Cover, VertexBoundDominatesForEvenN) {
  // For even n the per-vertex bound ceil(n*ceil((n-1)/2)/4) = n^2/8 exceeds
  // the edge bound n(n-1)/8.
  for (std::uint32_t n = 6; n <= 20; n += 2) {
    const std::uint64_t N = n;
    EXPECT_GE(c4_covering_lower_bound(n), N * N / 8) << n;
  }
}

TEST(C4Cover, GreedyCoversEverything) {
  for (std::uint32_t n : {6u, 9u, 12u}) {
    const auto cover = greedy_c4_cover(n);
    EXPECT_TRUE(covers_all_pairs(n, cover)) << n;
    EXPECT_GE(cover.size(), c4_covering_lower_bound(n)) << n;
  }
}

TEST(Emz, ObjectiveOfOptimalCover) {
  // Optimal covers use C3/C4 only: objective = 3*C3 + 4*C4.
  const auto cover = covering::build_optimal_cover(9);
  EXPECT_EQ(emz_objective(cover),
            3 * covering::count_c3(cover) + 4 * covering::count_c4(cover));
}

TEST(Emz, LowerBoundHolds) {
  for (std::uint32_t n = 4; n <= 20; ++n) {
    const auto cover = covering::build_optimal_cover(n);
    EXPECT_GE(emz_objective(cover), emz_lower_bound(n)) << n;
  }
}

TEST(Emz, GreedyValidAndBounded) {
  const auto cover = emz_greedy_cover(12);
  EXPECT_TRUE(covering::validate_cover(cover).ok);
  EXPECT_GE(emz_objective(cover), emz_lower_bound(12));
}

TEST(Baselines, DrcOptimalBeatsTripleCountAsymptotically) {
  // Who wins and by what factor: triple covering needs ~n^2/6, the DRC
  // covering ~n^2/8 — ratio approaches 4/3.
  const std::uint32_t n = 101;
  const double ratio = static_cast<double>(triple_covering_number(n)) /
                       static_cast<double>(covering::rho(n));
  EXPECT_NEAR(ratio, 4.0 / 3.0, 0.08);
}
