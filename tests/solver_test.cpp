#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"
#include "reference_solver.hpp"

using namespace ccov::covering;

// The solver plus the matching lower bound computationally certify the
// rho(n) values of Theorems 1 and 2 for small n: a covering with rho(n)
// cycles exists (solver witness) and none smaller can (parity bound, and
// for extra assurance exhaustive infeasibility at rho-1 on the smallest
// cases).

class SolverParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SolverParam, FindsCoveringAtRho) {
  const std::uint32_t n = GetParam();
  const auto res = solve_with_budget(n, rho(n));
  ASSERT_TRUE(res.found) << "n=" << n;
  const auto rep = validate_cover(res.cover);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(res.cover.size(), rho(n));
}

INSTANTIATE_TEST_SUITE_P(Small, SolverParam,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9));

class SolverInfeasibleParam : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SolverInfeasibleParam, NoCoveringBelowRho) {
  const std::uint32_t n = GetParam();
  const auto res = solve_with_budget(n, rho(n) - 1);
  EXPECT_FALSE(res.found) << "n=" << n;
  EXPECT_TRUE(res.exhausted) << "search must be a proof, not a timeout";
}

INSTANTIATE_TEST_SUITE_P(Small, SolverInfeasibleParam,
                         ::testing::Values(4, 5, 6, 7, 8));

TEST(Solver, MinimumMatchesRhoOnK7) {
  const auto min = solve_minimum(7);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(7));
  EXPECT_TRUE(validate_cover(min->second).ok);
}

TEST(Solver, MinimumMatchesRhoOnK8) {
  const auto min = solve_minimum(8);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(8));
}

TEST(Solver, NodeBudgetReported) {
  SolverOptions opts;
  opts.max_nodes = 10;  // absurdly small: must hit the budget on K_8
  const auto res = solve_with_budget(8, rho(8) - 1, opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
}

TEST(Solver, TrivialK3) {
  const auto res = solve_with_budget(3, 1);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(res.cover.cycle(0).size(), 3u);
}

// ---------------------------------------------------------------------------
// Search determinism goldens. The branch-and-bound search order is part of
// the library contract: node counts and witnesses below were captured from
// the original vector/sort-based implementation, and the bitset/arena core
// must reproduce them exactly. Any future "optimization" that changes the
// candidate ordering, the freshness tie-break, or the pruning sequence
// trips these immediately. The n=12 proof at budget 18 is pinned by
// TwelveProofNodesPinned below.

struct SearchGolden {
  std::uint32_t n;
  std::uint64_t nodes;
  const char* cover;  // concatenated to_string() of the witness
};

constexpr SearchGolden kFeasibleGolden[] = {
    {5, 5, "(0 1 2 3)(0 2 4)(1 3 4)"},
    {6, 6, "(0 1 2 3)(0 2 4 5)(0 1 3 4)(1 4 5)(2 3 5)"},
    {7, 10, "(0 1 2 4)(0 2 3 5)(0 3 4 6)(1 3 6)(1 4 5)(2 5 6)"},
    {8, 24,
     "(0 1 2 3)(0 2 4 5)(0 4 6 7)(0 1 3 6)(1 4 5 6)(1 5 7)(2 3 5)(2 6 7)"
     "(3 4 7)"},
    {9, 72,
     "(0 1 2 5)(0 2 3 6)(0 3 4 7)(0 4 5 8)(1 3 5 6)(1 4 6 8)(1 5 7)(2 4 8)"
     "(2 6 7)(3 7 8)"},
    {11, 54,
     "(0 1 2 6)(0 2 3 7)(0 3 4 8)(0 4 5 9)(0 5 6 10)(1 3 5 7)(1 4 6 8)"
     "(1 5 8 9)(1 6 7 10)(2 4 7 8)(2 5 10)(2 7 9)(3 6 9)(3 8 10)(4 9 10)"},
    {13, 819,
     "(0 1 2 7)(0 2 3 8)(0 3 4 9)(0 4 5 10)(0 5 6 11)(0 6 7 12)(1 3 5 8)"
     "(1 4 6 9)(1 5 7 10)(1 6 8 11)(1 7 8 12)(2 4 7 9)(2 5 9 10)(2 6 12)"
     "(2 8 9 11)(3 6 10)(3 7 11)(3 9 12)(4 8 10 11)(4 10 12)(5 11 12)"},
    {15, 753,
     "(0 1 2 8)(0 2 3 9)(0 3 4 10)(0 4 5 11)(0 5 6 12)(0 6 7 13)(0 7 8 14)"
     "(1 3 5 9)(1 4 6 10)(1 5 7 11)(1 6 8 12)(1 7 9 13)(1 8 9 14)"
     "(2 4 7 10)(2 5 8 11)(2 6 9 12)(2 7 12 13)(2 9 10 14)(3 6 11 12)"
     "(3 7 14)(3 8 13)(3 10 11)(4 8 10 12)(4 9 11 13)(4 11 14)(5 10 13)"
     "(5 12 14)(6 13 14)"},
};

TEST(SolverGolden, FeasibleNodesAndWitnessesPinned) {
  for (const SearchGolden& g : kFeasibleGolden) {
    const auto res = solve_with_budget(g.n, rho(g.n));
    ASSERT_TRUE(res.found) << "n=" << g.n;
    EXPECT_EQ(res.nodes, g.nodes) << "n=" << g.n;
    EXPECT_EQ(to_string(res.cover), g.cover) << "n=" << g.n;
  }
}

struct InfeasibleGolden {
  std::uint32_t n;
  std::uint64_t nodes;
};

constexpr InfeasibleGolden kInfeasibleGolden[] = {
    {5, 1}, {6, 1}, {7, 1}, {8, 9823}, {9, 1}, {10, 1}, {11, 1}, {13, 1},
};

TEST(SolverGolden, InfeasibleProofNodesPinned) {
  for (const InfeasibleGolden& g : kInfeasibleGolden) {
    const auto res = solve_with_budget(g.n, rho(g.n) - 1);
    EXPECT_FALSE(res.found) << "n=" << g.n;
    EXPECT_TRUE(res.exhausted) << "n=" << g.n;
    EXPECT_EQ(res.nodes, g.nodes) << "n=" << g.n;
  }
}

TEST(SolverGolden, TwelveProofNodesPinned) {
  // rho(12) = 19: no covering with 18 cycles, proved by exhaustion.
  constexpr std::uint64_t kProofNodes = 39'310'429;
  const auto ser = solve_with_budget(12, 18);
  EXPECT_FALSE(ser.found);
  EXPECT_TRUE(ser.exhausted);
  EXPECT_EQ(ser.nodes, kProofNodes);
  const auto par = solve_with_budget_parallel(12, 18);
  EXPECT_FALSE(par.found);
  EXPECT_TRUE(par.exhausted);
  EXPECT_EQ(par.nodes, kProofNodes);
}

TEST(SolverGolden, MinimumWitnessPinnedOnK9) {
  const auto min = solve_minimum(9);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->first, rho(9));
  EXPECT_EQ(to_string(min->second),
            "(3 7 8)(2 3 6 7)(2 6 8)(1 2 5 6)(1 3 5 7)(1 5 8)(0 1 4 5)"
            "(0 2 4 6)(0 3 4 7)(0 4 8)");
}

// ---------------------------------------------------------------------------
// Candidate enumeration. The rewritten generator emits each candidate
// exactly once, in lexicographically sorted vertex order, with no dedup
// pass — these regression tests pin that the lists stay duplicate-free
// and complete for every chord.

TEST(SolverCandidates, DuplicateFreeForEveryChord) {
  for (std::uint32_t n = 5; n <= 12; ++n) {
    for (Vertex a = 0; a < n; ++a) {
      for (Vertex b = a + 1; b < n; ++b) {
        const auto cands = detail::candidate_cycles(n, a, b);
        std::set<Cycle> seen;
        for (const Cycle& c : cands) {
          EXPECT_TRUE(seen.insert(c).second)
              << "duplicate candidate " << to_string(c) << " for chord ("
              << a << "," << b << "), n=" << n;
          EXPECT_TRUE(is_valid_cycle(c, n)) << to_string(c);
          EXPECT_TRUE(std::is_sorted(c.begin(), c.end())) << to_string(c);
          // (a, b) must be an edge of the circularly ordered cycle.
          bool has_chord = false;
          for (const auto& [u, v] : cycle_chords(c))
            has_chord |= (u == a && v == b);
          EXPECT_TRUE(has_chord) << to_string(c);
        }
      }
    }
  }
}

TEST(SolverCandidates, CountMatchesClosedForm) {
  // n-2 triangles, plus quads whose two extra vertices share one of the
  // two open arcs between a and b.
  for (std::uint32_t n = 5; n <= 12; ++n) {
    for (Vertex a = 0; a < n; ++a) {
      for (Vertex b = a + 1; b < n; ++b) {
        const std::size_t inside = b - a - 1;
        const std::size_t outside = n - 2 - inside;
        const std::size_t expect = (n - 2) + inside * (inside - 1) / 2 +
                                   outside * (outside - 1) / 2;
        EXPECT_EQ(detail::candidate_cycles(n, a, b).size(), expect)
            << "chord (" << a << "," << b << "), n=" << n;
      }
    }
  }
}

TEST(SolverCandidates, TriangleOnlyWhenMaxLenIsThree) {
  SolverOptions opts;
  opts.max_cycle_len = 3;
  const auto cands = detail::candidate_cycles(9, 2, 6, opts);
  EXPECT_EQ(cands.size(), 7u);  // n - 2 triangles, no quads
  for (const Cycle& c : cands) EXPECT_EQ(c.size(), 3u);
}

// ---------------------------------------------------------------------------
// Differential oracle: the search decides dead leaves in their parent,
// and must still count, poll and order everything exactly as the search
// in reference_solver.hpp, which applies and visits every child. Each
// shard sweeps a range of n over budgets rho-2..rho+1, node caps around
// the 1,024/4,096-node polls and the shared-budget chunk, and three
// option sets: the default, triangles only, and no capacity prune. The
// parallel search must keep within the cap and, whenever the cap is not
// hit, equal the reference at 1, 2 and 4 threads.

namespace {

constexpr std::uint64_t kOracleCaps[] = {1,    7,    1000,  4095,
                                         4096, 4097, 20000, 300000};
// Shard s sweeps n in [kOracleShardFrom[s], kOracleShardFrom[s + 1]).
constexpr std::uint32_t kOracleShardFrom[] = {3,  11, 15, 19, 23, 26, 29,
                                              32, 35, 37, 39, 41, 43, 45};
constexpr int kOracleShards =
    static_cast<int>(std::size(kOracleShardFrom)) - 1;

SolverOptions oracle_options(int variant, std::uint64_t cap) {
  SolverOptions opts;
  opts.max_nodes = cap;
  if (variant == 1) opts.max_cycle_len = 3;
  if (variant == 2) opts.use_capacity_prune = false;
  return opts;
}

void expect_same(const SolverResult& got, const SolverResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.found, want.found) << where;
  EXPECT_EQ(got.exhausted, want.exhausted) << where;
  EXPECT_EQ(got.timed_out, want.timed_out) << where;
  EXPECT_EQ(to_string(got.cover), to_string(want.cover)) << where;
}

}  // namespace

class SolverOracle : public ::testing::TestWithParam<int> {};

TEST_P(SolverOracle, MatchesReferenceSearch) {
  std::size_t parallel_checks = 0;
  for (std::uint32_t n = kOracleShardFrom[GetParam()];
       n < kOracleShardFrom[GetParam() + 1]; ++n) {
    const std::uint64_t r = rho(n);
    for (std::uint64_t budget = r < 2 ? 0 : r - 2; budget <= r + 1;
         ++budget) {
      for (int variant = 0; variant < 3; ++variant) {
        for (const std::uint64_t cap : kOracleCaps) {
          const SolverOptions opts = oracle_options(variant, cap);
          const std::string where = "n=" + std::to_string(n) +
                                    " budget=" + std::to_string(budget) +
                                    " variant=" + std::to_string(variant) +
                                    " cap=" + std::to_string(cap);
          const auto want = reference::solve_with_budget(n, budget, opts);
          expect_same(solve_with_budget(n, budget, opts), want, where);
          if (!want.exhausted) {
            // The parallel search must keep to the cap too: the shared
            // budget grants cap - 1 nodes after the root, and each root
            // subtree counts at most one refused node.
            const auto par = solve_with_budget_parallel(n, budget, opts, 2);
            EXPECT_LE(par.nodes,
                      cap + detail::candidate_cycles(n, 0, 1, opts).size())
                << where;
            continue;
          }
          // One thread walks the roots in order on the shared budget, so
          // it never starves a subtree; more threads may, and then report
          // exhausted == false with a cover that need not be the serial one.
          for (const std::size_t threads : {1, 2, 4}) {
            const auto par =
                solve_with_budget_parallel(n, budget, opts, threads);
            const std::string at = where + " threads=" +
                                   std::to_string(threads);
            if (threads == 1) {
              EXPECT_TRUE(par.exhausted) << at;
            }
            if (!par.exhausted) continue;
            expect_same(par, want, at);
            ++parallel_checks;
          }
        }
      }
    }
  }
  EXPECT_GT(parallel_checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, SolverOracle,
                         ::testing::Range(0, kOracleShards));

TEST(SolverOracle, CandidateListsMatchReference) {
  for (std::uint32_t n = 3; n <= 12; ++n) {
    for (const std::uint32_t len : {3u, 4u}) {
      SolverOptions opts;
      opts.max_cycle_len = len;
      reference::solver_detail::Search ref(n, opts);
      reference::solver_detail::Search::DepthScratch scratch;
      for (Vertex a = 0; a < n; ++a) {
        for (Vertex b = a + 1; b < n; ++b) {
          ref.generate(a, b, scratch);
          const std::size_t k = ref.order_candidates(scratch);
          std::vector<Cycle> want;
          for (std::size_t i = 0; i < k; ++i)
            want.push_back(scratch.ordered[i].to_cycle());
          EXPECT_EQ(detail::candidate_cycles(n, a, b, opts), want)
              << "chord (" << a << "," << b << "), n=" << n;
        }
      }
    }
  }
}
