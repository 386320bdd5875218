#include <stdexcept>

#include "ccov/covering/construct.hpp"

namespace ccov::covering {

/// Induction K_{2p-1} -> K_{2p+1}.
///
/// Insert two new vertices u, v into the ring. In the new labelling
///   u = 0, side A = 1..p-1 (old 0..p-2), v = p, side B = p+1..2p (old
///   p-1..2p-2).
/// Order-preserving relabelling keeps every old cycle circularly ordered,
/// so old cycles remain DRC and keep covering all old chords. The new
/// chords (every pair touching u or v) are covered exactly by
///   quads (u, a_i, v, b_i) = (0, i, p, p+i), i = 1..p-1, and
///   triangle (u, v, b_p) = (0, p, 2p).
/// Counting gives rho(2p+1) = rho(2p-1) + p with p-1 quads + 1 triangle
/// added per step: totals p C3 + p(p-1)/2 C4 = p(p+1)/2 cycles, matching
/// the capacity lower bound, hence optimal.
RingCover construct_odd_cover(std::uint32_t n) {
  if (n < 3 || n % 2 == 0)
    throw std::invalid_argument("construct_odd_cover: odd n >= 3 required");

  RingCover cover;
  cover.n = 3;
  cover.cycles = {{0, 1, 2}};

  for (std::uint32_t m = 5; m <= n; m += 2) {
    const Vertex p = (m - 1) / 2;
    // Relabel: old i -> i+1 for i <= p-2, old i -> i+2 for i >= p-1.
    for (Cycle& c : cover.cycles)
      for (Vertex& v : c) v = v <= p - 2 ? v + 1 : v + 2;
    // New cycles covering all chords incident to u = 0 and v = p.
    for (Vertex i = 1; i + 1 <= p; ++i)
      cover.cycles.push_back({0, i, p, static_cast<Vertex>(p + i)});
    cover.cycles.push_back({0, p, static_cast<Vertex>(2 * p)});
    cover.n = m;
  }
  return cover;
}

}  // namespace ccov::covering
