#pragma once
/// \file emz.hpp
/// The Eilam-Moran-Zaks objective (paper ref [3]): same ring survivability
/// conditions, but minimizing the SUM OF RING SIZES (total vertices over
/// all sub-networks) instead of the number of sub-networks. This module
/// evaluates that objective on any cover and on the count-greedy,
/// letting the benchmarks contrast the two cost models
/// (which coincide asymptotically on K_n because optimal covers use only
/// C3/C4, but diverge on sparse instances).

#include <cstdint>

#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::baselines {

/// Sum of cycle sizes (the EMZ cost).
std::uint64_t emz_objective(const covering::RingCover& cover);

/// Lower bound on the EMZ cost of covering K_n on C_n:
/// 3 * parity_lower_bound(n), since any cover needs at least
/// parity_lower_bound(n) cycles and each has at least 3 vertices.
std::uint64_t emz_lower_bound(std::uint32_t n);

/// covering::greedy_cover(n) unchanged: the count-greedy already builds
/// only C3/C4, so it serves as the size-cost heuristic too. A separate
/// entry point lets the benchmarks report the EMZ objective under its
/// own name.
covering::RingCover emz_greedy_cover(std::uint32_t n);

}  // namespace ccov::baselines
