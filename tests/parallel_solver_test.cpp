#include <gtest/gtest.h>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"

using namespace ccov::covering;

class ParallelSolverParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelSolverParam, AgreesWithSerialOnFeasibility) {
  const std::uint32_t n = GetParam();
  const auto par = solve_with_budget_parallel(n, rho(n));
  ASSERT_TRUE(par.found) << "n=" << n;
  const auto rep = validate_cover(par.cover);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(par.cover.size(), rho(n));
}

TEST_P(ParallelSolverParam, AgreesWithSerialOnInfeasibility) {
  const std::uint32_t n = GetParam();
  if (n < 4) return;
  const auto par = solve_with_budget_parallel(n, rho(n) - 1);
  EXPECT_FALSE(par.found) << "n=" << n;
  EXPECT_TRUE(par.exhausted);
}

INSTANTIATE_TEST_SUITE_P(Small, ParallelSolverParam,
                         ::testing::Values(4, 5, 6, 7, 8));

TEST(ParallelSolver, SingleThreadStillWorks) {
  const auto res = solve_with_budget_parallel(6, rho(6), {}, 1);
  EXPECT_TRUE(res.found);
}

TEST(ParallelSolver, ZeroBudgetInfeasible) {
  const auto res = solve_with_budget_parallel(5, 0);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.exhausted);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel search returns the witness of the *lowest*
// successful root subtree — exactly the one the serial search commits to —
// and sums the node counts the serial search would have spent, so whenever
// the node budget is not hit, nodes and covers are byte-identical to
// solve_with_budget for every thread count.

class ParallelDeterminismParam
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelDeterminismParam, NodesAndCoverMatchSerial) {
  const std::uint32_t n = GetParam();
  const auto ser = solve_with_budget(n, rho(n));
  ASSERT_TRUE(ser.found);
  const std::size_t thread_counts[] = {1, 4, 0};
  for (const std::size_t threads : thread_counts) {
    const auto par = solve_with_budget_parallel(n, rho(n), {}, threads);
    ASSERT_TRUE(par.found) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.nodes, ser.nodes) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.cover, ser.cover) << "n=" << n << " threads=" << threads;
  }
}

TEST_P(ParallelDeterminismParam, NodesMatchSerialOnInfeasible) {
  const std::uint32_t n = GetParam();
  const auto ser = solve_with_budget(n, rho(n) - 1);
  const auto par = solve_with_budget_parallel(n, rho(n) - 1);
  EXPECT_FALSE(par.found) << "n=" << n;
  EXPECT_EQ(par.exhausted, ser.exhausted) << "n=" << n;
  EXPECT_EQ(par.nodes, ser.nodes) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Golden, ParallelDeterminismParam,
                         ::testing::Values(5, 6, 7, 8, 9, 11, 13, 15));

TEST(ParallelSolver, SharedBudgetBoundsTotalNodeSpend) {
  // All workers draw from one shared pool: the total node spend may exceed
  // max_nodes only by the few nodes each worker counts while discovering
  // the pool is empty — never by a factor of the root fan-out as the old
  // per-worker budgets allowed.
  SolverOptions opts;
  opts.max_nodes = 1000;
  const auto res = solve_with_budget_parallel(8, rho(8) - 1, opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  EXPECT_LE(res.nodes, opts.max_nodes + 100);
}
