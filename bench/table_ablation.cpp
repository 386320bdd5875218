// Experiment A1 — ablations of the library's main design choices.
//
//  (a) Solver capacity pruning: the "each DRC cycle tiles the ring exactly
//      once" insight is the paper's core; turning the derived prune off
//      shows how much of the search it removes.
//  (b) Parallel root fan-out: same proof, wall-clock scaling.
//  (c) Cycle-size cap: searching C3..C5 instead of C3..C4 never improves
//      the optimum (the theorems say C3/C4 suffice) but grows the branch
//      factor.

#include <iostream>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/util/table.hpp"
#include "ccov/util/timer.hpp"

int main() {
  using namespace ccov::covering;
  ccov::util::Table t({"n", "budget", "variant", "found", "proof", "nodes",
                       "ms"});
  for (std::uint32_t n : {6u, 7u, 8u}) {
    const std::uint64_t budget = rho(n) - 1;  // infeasible: full proofs

    {
      SolverOptions o;
      ccov::util::Timer timer;
      const auto r = solve_with_budget(n, budget, o);
      t.add(n, budget, "capacity prune ON", r.found ? "yes" : "no",
            r.exhausted ? "yes" : "no", r.nodes, timer.millis());
    }
    {
      SolverOptions o;
      o.use_capacity_prune = false;
      o.max_nodes = 20'000'000;
      ccov::util::Timer timer;
      const auto r = solve_with_budget(n, budget, o);
      t.add(n, budget, "capacity prune OFF", r.found ? "yes" : "no",
            r.exhausted ? "yes" : "no", r.nodes, timer.millis());
    }
    {
      SolverOptions o;
      ccov::util::Timer timer;
      const auto r = solve_with_budget_parallel(n, budget, o);
      t.add(n, budget, "parallel roots", r.found ? "yes" : "no",
            r.exhausted ? "yes" : "no", r.nodes, timer.millis());
    }
    {
      SolverOptions o;
      o.max_cycle_len = 5;
      ccov::util::Timer timer;
      const auto r = solve_with_budget(n, budget, o);
      t.add(n, budget, "sizes C3..C5", r.found ? "yes" : "no",
            r.exhausted ? "yes" : "no", r.nodes, timer.millis());
    }
  }
  t.print(std::cout,
          "Ablation: exhaustive infeasibility proofs at budget rho(n)-1");
  std::cout << "\nShape check: the capacity prune (the paper's tiling "
               "insight) cuts the explored nodes by orders of magnitude "
               "and is what makes the exhaustive certification of Theorem "
               "2's small cases tractable; allowing C5s only inflates the "
               "search.\n";
  return 0;
}
