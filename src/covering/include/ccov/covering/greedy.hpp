#pragma once
/// \file greedy.hpp
/// Greedy DRC-covering baseline: until every chord is covered, take the
/// lexicographically first uncovered chord (a, b) and add the C3/C4
/// through it, as a sorted (hence DRC) cycle with (a, b) as an edge,
/// that covers the most uncovered chords. Ties go to the smaller third
/// vertex w, then the triangle (a, b, w) before any quad, then the
/// smaller fourth vertex. Simple, valid, but suboptimal — used in the
/// benchmark tables to show the gap to the paper's constructions.
///
/// The kernel keeps the uncovered chords as adjacency rows, n * ceil(n/64)
/// 64-bit words whatever the demand, and picks each cycle in
/// O(n * ceil(n/64)) word operations.

#include <span>

#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::covering {

/// Greedy covering of K_n over C_n. Throws std::invalid_argument for
/// n = 2, whose one chord lies on no C3/C4.
RingCover greedy_cover(std::uint32_t n);

/// Greedy covering of an arbitrary demand graph over C_n (used by the
/// tree-of-rings extension, where per-ring demands are not complete).
/// A repeated chord is covered once. Throws std::invalid_argument if the
/// demand mentions a vertex >= n, or has a chord and n < 3.
RingCover greedy_cover_demand(std::uint32_t n, const graph::Graph& demand);

/// The same greedy over a chord list in any order, without building a
/// Graph: a repeated chord (either orientation) is covered once. Throws
/// std::invalid_argument with graph::Graph's text if any chord is a
/// self-loop, else with greedy_cover_demand's if a chord mentions a
/// vertex >= n, so a list fails as the Graph built from it would.
RingCover greedy_cover_chords(std::uint32_t n,
                              std::span<const graph::Edge> chords);

}  // namespace ccov::covering
