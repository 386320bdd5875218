#pragma once
/// \file reference_greedy.hpp
/// The greedy DRC-covering baseline as the library ran it on a
/// ChordBitset before its word-parallel kernel: through the
/// lexicographically first uncovered chord (a, b), try the triangle
/// (a, b, w) and every quad (a, b, w, z) with w and z on the same side
/// of (a, b), each pair scored by bit probes, and keep the first
/// candidate (w ascending, triangle before its quads, z ascending) with
/// the most uncovered chords. O(n^2) candidates per cycle.
/// ccov::covering::greedy_cover and greedy_cover_demand must reproduce
/// it cycle for cycle; the differential test and the fuzz_greedy_cover
/// harness compare against it.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"
#include "ccov/ring/ring.hpp"

namespace ccov::covering::reference {

namespace greedy_detail {

inline SmallCycle sorted3(Vertex a, Vertex b, Vertex c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return {a, b, c};
}

inline SmallCycle sorted4(Vertex a, Vertex b, Vertex c, Vertex d) {
  if (a > b) std::swap(a, b);
  if (c > d) std::swap(c, d);
  if (a > c) std::swap(a, c);
  if (b > d) std::swap(b, d);
  if (b > c) std::swap(b, c);
  return {a, b, c, d};
}

inline int fresh(const ChordBitset& uncovered, const SmallCycle& c) {
  int f = 0;
  for_each_chord(c, [&](Vertex u, Vertex v) { f += uncovered.test(u, v); });
  return f;
}

inline SmallCycle best_cycle_through(const ring::Ring& r, Vertex a, Vertex b,
                                     const ChordBitset& uncovered) {
  const std::uint32_t n = r.size();
  SmallCycle best;
  int best_fresh = -1;
  for (Vertex w = 0; w < n; ++w) {
    if (w == a || w == b) continue;
    const SmallCycle tri = sorted3(a, b, w);
    const int f3 = fresh(uncovered, tri);
    if (f3 > best_fresh) {
      best_fresh = f3;
      best = tri;
    }
    for (Vertex z = w + 1; z < n; ++z) {
      if (z == a || z == b) continue;
      const bool same_ab = (r.cw_dist(a, w) < r.cw_dist(a, b)) ==
                           (r.cw_dist(a, z) < r.cw_dist(a, b));
      if (!same_ab) continue;
      const SmallCycle quad = sorted4(a, b, w, z);
      const int f4 = fresh(uncovered, quad);
      if (f4 > best_fresh) {
        best_fresh = f4;
        best = quad;
      }
    }
  }
  return best;
}

inline RingCover greedy_impl(std::uint32_t n, ChordBitset uncovered,
                             std::size_t remaining) {
  const ring::Ring r(n);
  RingCover cover;
  cover.n = n;
  Vertex a = 0, b = 0;
  while (remaining > 0 && uncovered.first(a, b)) {
    const SmallCycle c = best_cycle_through(r, a, b, uncovered);
    for_each_chord(c, [&](Vertex u, Vertex v) {
      if (uncovered.test(u, v)) {
        uncovered.clear(u, v);
        --remaining;
      }
    });
    cover.cycles.push_back(c.to_cycle());
  }
  return cover;
}

}  // namespace greedy_detail

/// Needs n >= 3 (at n = 2 the chord (0, 1) lies on no C3/C4 and the
/// loop never ends).
inline RingCover greedy_cover(std::uint32_t n) {
  ChordBitset uncovered(n);
  uncovered.set_all_chords();
  return greedy_detail::greedy_impl(n, std::move(uncovered),
                                    static_cast<std::size_t>(n) * (n - 1) / 2);
}

inline RingCover greedy_cover_demand(std::uint32_t n,
                                     const graph::Graph& demand) {
  ChordBitset uncovered(n);
  std::size_t remaining = 0;
  for (const auto& e : demand.edges()) {
    if (e.u >= n || e.v >= n)
      throw std::invalid_argument(
          "greedy_cover_demand: demand vertex out of range for ring size " +
          std::to_string(n));
    const Vertex u = e.u < e.v ? e.u : e.v;
    const Vertex v = e.u < e.v ? e.v : e.u;
    if (!uncovered.test(u, v)) {
      uncovered.set(u, v);
      ++remaining;
    }
  }
  return greedy_detail::greedy_impl(n, std::move(uncovered), remaining);
}

}  // namespace ccov::covering::reference
