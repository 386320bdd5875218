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
///
/// Closed form: for a k-cycle with adjacent vertices distinct, let fwd be
/// the sum of its clockwise gaps cw_dist(c[i], c[i+1]). Every gap lies in
/// [1, n), so the reversed sequence's gaps sum to k*n - fwd, and the cycle
/// winds once clockwise iff fwd == n, once counter-clockwise iff
/// fwd == (k-1)*n. Winding once also makes the vertices distinct (their
/// clockwise offsets from c[0] strictly increase), so one O(k) pass with no
/// allocation decides both structure and the DRC.

#include <optional>
#include <span>
#include <vector>

#include "ccov/covering/cycle.hpp"
#include "ccov/ring/arc.hpp"

namespace ccov::covering {

/// Winding of a vertex sequence around C_n by the closed form above: +1
/// when it is a cycle circularly ordered clockwise, -1 counter-clockwise,
/// 0 when it is not a circularly ordered cycle on C_n at all (fewer than 3
/// vertices, a vertex >= n, a repeated vertex, or a walk that winds more
/// than once). O(k), allocation-free; satisfies_drc, drc_route and the
/// cover validators all decide the DRC through it.
int drc_winding(std::uint32_t n, std::span<const Vertex> c);

/// True when the cycle's vertices appear in circular order (clockwise or
/// counterclockwise) around the ring — i.e. the DRC is satisfiable.
bool is_circularly_ordered(const ring::Ring& r, std::span<const Vertex> c);

/// Equivalent to is_circularly_ordered (named after the paper's property).
inline bool satisfies_drc(const ring::Ring& r, std::span<const Vertex> c) {
  return is_circularly_ordered(r, c);
}

/// The edge-disjoint routing (one arc per logical edge, in cycle order),
/// or nullopt when the DRC fails. The returned arcs tile the ring exactly.
std::optional<std::vector<ring::Arc>> drc_route(const ring::Ring& r,
                                                std::span<const Vertex> c);

/// Brute-force DRC oracle: tries all 2^k orientation assignments and checks
/// pairwise edge-disjointness. Exponential; used only to validate the O(k)
/// characterisation in tests (k <= ~20).
bool satisfies_drc_bruteforce(const ring::Ring& r, std::span<const Vertex> c);

}  // namespace ccov::covering
