#pragma once
/// \file drc.hpp
/// The Disjoint Routing Constraint (DRC) of the paper, specialised to rings.
///
/// Theory: concatenating the routing paths of a logical
/// cycle gives a closed walk on C_n; pairwise edge-disjointness forces the
/// walk to traverse every ring edge exactly once in one direction (winding
/// number 1). Hence a cycle admits an edge-disjoint routing iff its vertex
/// sequence is circularly ordered around the ring, and the unique routing
/// assigns each logical edge the forward arc between its endpoints.

#include <optional>
#include <vector>

#include "ccov/covering/cycle.hpp"
#include "ccov/ring/arc.hpp"

namespace ccov::covering {

/// True when the cycle's vertices appear in circular order (clockwise or
/// counterclockwise) around the ring — i.e. the DRC is satisfiable.
bool is_circularly_ordered(const ring::Ring& r, const Cycle& c);

/// Equivalent to is_circularly_ordered (named after the paper's property).
inline bool satisfies_drc(const ring::Ring& r, const Cycle& c) {
  return is_circularly_ordered(r, c);
}

/// The edge-disjoint routing (one arc per logical edge, in cycle order),
/// or nullopt when the DRC fails. The returned arcs tile the ring exactly.
std::optional<std::vector<ring::Arc>> drc_route(const ring::Ring& r,
                                                const Cycle& c);

/// Brute-force DRC oracle: tries all 2^k orientation assignments and checks
/// pairwise edge-disjointness. Exponential; used only to validate the O(k)
/// characterisation in tests (k <= ~20).
bool satisfies_drc_bruteforce(const ring::Ring& r, const Cycle& c);

}  // namespace ccov::covering
