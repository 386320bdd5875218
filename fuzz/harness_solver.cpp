#include "harnesses.hpp"

#include <cstdlib>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"
#include "reference_solver.hpp"

namespace cov = ccov::covering;

/// Differential check of the exact search. Byte 0 picks the ring size
/// n = 3..30; byte 1 the budget rho(n) - 2 + (byte % 4), at least 0;
/// bytes 2-3 the node cap 1..65,536 (big-endian, plus one); byte 4
/// holds flags: bit 0 limits cycles to triangles, bit 1 turns the
/// capacity prune off. Aborts when solve_with_budget differs from the
/// search in tests/reference_solver.hpp in nodes, found, exhausted,
/// timed_out or the witness.
int ccov_fuzz_solver(const std::uint8_t* data, std::size_t size) {
  if (size < 5) return 0;
  const std::uint32_t n = 3 + data[0] % 28;
  const std::uint64_t budget_plus_two = cov::rho(n) + data[1] % 4;
  const std::uint64_t budget = budget_plus_two < 2 ? 0 : budget_plus_two - 2;
  cov::SolverOptions opts;
  opts.max_nodes = 1 + ((std::uint64_t{data[2]} << 8) | data[3]);
  if (data[4] & 1) opts.max_cycle_len = 3;
  if (data[4] & 2) opts.use_capacity_prune = false;
  const cov::SolverResult got = cov::solve_with_budget(n, budget, opts);
  const cov::SolverResult want =
      cov::reference::solve_with_budget(n, budget, opts);
  if (got.nodes != want.nodes || got.found != want.found ||
      got.exhausted != want.exhausted || got.timed_out != want.timed_out ||
      cov::to_string(got.cover) != cov::to_string(want.cover))
    std::abort();
  return 0;
}
