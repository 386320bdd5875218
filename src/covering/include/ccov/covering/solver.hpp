#pragma once
/// \file solver.hpp
/// Exact branch-and-bound search for minimum DRC-coverings. Together with
/// the capacity/parity lower bounds this computationally certifies the
/// rho(n) values of Theorems 1 and 2 for small n.

#include <cstdint>
#include <optional>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::covering {

struct SolverOptions {
  /// Maximum cycle length to branch on. Sizes {3,4} suffice to reach the
  /// theorems' optima; since the matching lower bound certifies them, the
  /// restricted search still proves rho(n) whenever it succeeds.
  std::uint32_t max_cycle_len = 4;
  /// Node budget (branch evaluations) before giving up.
  std::uint64_t max_nodes = 200'000'000;
  /// Capacity pruning (each cycle supplies exactly n arc units). Disabling
  /// it exists only for the ablation benchmark — searches explode.
  bool use_capacity_prune = true;
  /// Runtime interruption controls. Both are polled every ~4k nodes, so
  /// an unset deadline / null token leaves node counts byte-identical to
  /// a build without them (the golden-count tests pin this). They
  /// describe *this run*, not the problem, and are deliberately excluded
  /// from the engine's canonical cache key.
  util::Deadline deadline{};                  ///< wall-clock bound (unset = none)
  const util::CancelToken* cancel = nullptr;  ///< cooperative cancel (may be null)
};

struct SolverResult {
  bool found = false;          ///< a covering within the budget was found
  bool exhausted = false;      ///< search space fully explored (proof of
                               ///< infeasibility when !found)
  bool timed_out = false;      ///< the deadline expired mid-search
  bool cancelled = false;      ///< the cancel token fired mid-search
  /// Branch nodes visited. A child that the capacity prune or the last
  /// cycle of the budget rejects at once is decided in its parent,
  /// without being applied, but it still counts as one node here and
  /// against `max_nodes`, and takes part in the deadline, cancel and
  /// parallel-winner polls, so counts match a search that visits it.
  std::uint64_t nodes = 0;
  RingCover cover;             ///< witness when found
};

/// Search for a DRC-covering of K_n with at most `budget` cycles.
SolverResult solve_with_budget(std::uint32_t n, std::uint64_t budget,
                               const SolverOptions& opts = {});

/// Compute the exact minimum by decreasing the budget from the
/// construction's value until infeasible. Returns the minimum count and a
/// witness, or nullopt if the node budget was exceeded, the deadline
/// expired, or the cancel token fired. When `last` is non-null it
/// receives the final budget probe's result (total nodes across all
/// probes; timed_out/cancelled say *why* an inconclusive run stopped).
std::optional<std::pair<std::uint64_t, RingCover>> solve_minimum(
    std::uint32_t n, const SolverOptions& opts = {},
    SolverResult* last = nullptr);

/// Parallel variant: fans the root branching (the candidate cycles through
/// chord (0, 1)) across a thread pool. All workers draw from one shared
/// atomic node budget (`opts.max_nodes` total, like the serial search —
/// not per worker), and the returned witness is always the one from the
/// lowest successful root subtree, i.e. exactly the cover the serial
/// search returns. Whenever the node budget is not exhausted, `nodes`
/// and `cover` are byte-identical to solve_with_budget; workers that can
/// no longer produce the winning subtree cancel themselves early. If a
/// subtree below the winner was starved by the shared budget, the
/// witness is still a valid cover but may differ from the serial one,
/// and the result reports `exhausted == false` to flag the truncation.
/// `threads == 0` selects hardware concurrency, and larger counts are
/// clamped to it: the workers run in a pool built for this call, and
/// since nodes and witness do not depend on the count, more threads than
/// cores would only cost spawns (a wire request may ask for 4,096).
SolverResult solve_with_budget_parallel(std::uint32_t n, std::uint64_t budget,
                                        const SolverOptions& opts = {},
                                        std::size_t threads = 0);

namespace detail {

/// Testing hook: the exact candidate branching list the search uses for
/// chord (a, b), a < b < n, of K_n in the initial (all-uncovered) state —
/// duplicate free, every cycle containing (a, b) as an edge, ordered by
/// freshness (stable on the lexicographic generation order). It comes
/// from the generator the search itself runs; the search keeps the same
/// sequence in per-depth freshness buckets, minus the children it
/// decides without visiting, and the parallel search fans out over it.
std::vector<Cycle> candidate_cycles(std::uint32_t n, Vertex a, Vertex b,
                                    const SolverOptions& opts = {});

}  // namespace detail

}  // namespace ccov::covering
