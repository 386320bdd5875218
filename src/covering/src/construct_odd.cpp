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
///
/// Each cycle is written once, in the labels of K_n, n = 2P+1. The
/// relabelling puts the old u and v at the front of sides A and B, so
/// step p's u_p and v_p end at labels P-p and 2P-p, side A of step p
/// (u_{p-1}, ..., u_1) at P-p+1..P-1, side B (v_{p-1}, ..., v_1, then
/// the base triangle's third vertex) at 2P-p+1..2P. With d = P-p, step
/// p appends the quads (d, d+i, d+P, d+P+i) and the triangle
/// (d, d+P, 2P); the base triangle is (P-1, 2P-1, 2P). O(n^2) time, in
/// the order the induction appends the cycles.
RingCover construct_odd_cover(std::uint32_t n) {
  if (n < 3 || n % 2 == 0)
    throw std::invalid_argument("construct_odd_cover: odd n >= 3 required");

  const Vertex P = (n - 1) / 2;
  RingCover cover;
  cover.n = n;
  cover.cycles.reserve(std::size_t{P} * (P + 1) / 2);
  cover.cycles.push_back({P - 1, 2 * P - 1, 2 * P});
  for (Vertex p = 2; p <= P; ++p) {
    const Vertex d = P - p;
    for (Vertex i = 1; i < p; ++i)
      cover.cycles.push_back({d, d + i, d + P, d + P + i});
    cover.cycles.push_back({d, d + P, 2 * P});
  }
  return cover;
}

}  // namespace ccov::covering
