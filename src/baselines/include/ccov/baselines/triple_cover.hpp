#pragma once
/// \file triple_cover.hpp
/// Classical covering of K_n by triangles WITHOUT the disjoint routing
/// constraint (paper refs [6] Mills-Mullin, [7] Stanton-Rogers). The paper
/// quotes the covering number C(n,3,2) = ceil(n/3 * ceil((n-1)/2)); this
/// module provides that closed form (Fort-Hedlund) plus a greedy
/// construction, so the benchmark tables can show what the DRC costs.

#include <cstdint>

#include "ccov/covering/cover.hpp"

namespace ccov::baselines {

/// Fort-Hedlund covering number C(n,3,2): the minimum number of triples
/// covering every pair of an n-set, n >= 3.
std::uint64_t triple_covering_number(std::uint32_t n);

/// Greedy triangle covering of K_n (ignores routing entirely). Returned
/// cycles generally violate the DRC — that is the point of the baseline.
covering::RingCover greedy_triple_cover(std::uint32_t n);

/// How many cycles of a covering satisfy the DRC on C_n (used to report
/// how un-deployable the classical covering is on a ring).
std::size_t count_drc_feasible(const covering::RingCover& cover);

}  // namespace ccov::baselines
