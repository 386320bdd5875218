#include <algorithm>
#include <array>
#include <stdexcept>

#include "ccov/covering/construct.hpp"
#include "ccov/covering/drc.hpp"

namespace ccov::covering {

namespace {

/// Relabel old vertex labels after inserting two vertices at old edges
/// eA < eB: the new labels of the inserted vertices are eA+1 and eB+2.
Vertex relabel_after_insert(Vertex old, std::uint32_t eA, std::uint32_t eB) {
  if (old <= eA) return old;
  if (old <= eB) return old + 1;
  return old + 2;
}

/// The circularly ordered cycle on a vertex set is unique: append it
/// sorted ascending, sorting on the stack rather than in a temporary.
template <std::size_t K>
void push_sorted(RingCover& cover, std::array<Vertex, K> vs) {
  std::sort(vs.begin(), vs.end());
  cover.add(vs);
}

/// Hand-verified optimal base coverings.
RingCover base4() {
  // The covering from the paper's in-text example (0-indexed):
  // one C4 (0,1,2,3) plus triangles (0,1,3) and (0,2,3).
  return RingCover{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}}};
}

RingCover base6() {
  // rho(6) = 5 with the Theorem 2 composition 2 C3 + 3 C4.
  return RingCover{
      6, {{0, 2, 4}, {1, 3, 5}, {0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 4, 5}}};
}

RingCover base10() {
  // Found by the exact solver (solve_with_budget(10, 13), search exhausted):
  // rho(10) = 13 with the Theorem 2 composition 2 C3 + 11 C4.
  return RingCover{10,
                   {{0, 1, 2, 5},
                    {0, 2, 3, 6},
                    {0, 3, 4, 7},
                    {0, 4, 5, 8},
                    {0, 1, 5, 9},
                    {1, 3, 5, 7},
                    {1, 4, 6, 8},
                    {1, 6, 7, 9},
                    {2, 4, 8, 9},
                    {2, 6, 7, 8},
                    {2, 3, 7},
                    {3, 8, 9},
                    {4, 5, 6, 9}}};
}

/// p-even insertion step: K_{2p-2} -> K_{2p} with p even, adding exactly
/// rho(2p) - rho(2p-2) = p cycles.
///
/// Two new vertices u, v are inserted at antipodal cuts. Order-preserving
/// relabelling keeps every old cycle circularly ordered (hence DRC) and
/// covering all old chords. The new chords are covered by p-2 "standard"
/// quads (a_i, v, b_i, u) pairing the two sides, plus two triangles
/// handling the leftover side vertices; both triangles contain the edge
/// u-v, which is therefore covered twice. Used for n = 8 (from K_6) and
/// n = 12 (from K_10): together with the bases this realises Theorem 2's
/// optimal values and compositions for every even n <= 12.
void even_step(RingCover& cover, std::uint32_t m) {
  const Vertex p = m / 2;
  const std::uint32_t eA = p - 2;  // v inserted here -> label p-1
  const std::uint32_t eB = m - 3;  // u inserted here -> label 2p-1
  for (Vertex& x : cover.verts) x = relabel_after_insert(x, eA, eB);
  const Vertex v = p - 1;
  const Vertex u = static_cast<Vertex>(m - 1);

  cover.reserve(p, 4 * std::size_t{p});
  for (Vertex i = 0; i + 3 <= p; ++i)  // i = 0..p-3
    cover.add(i, v, static_cast<Vertex>(p + i), u);
  push_sorted<3>(cover, {static_cast<Vertex>(p - 2), v, u});
  push_sorted<3>(cover, {v, static_cast<Vertex>(m - 2), u});
  cover.n = m;
}

/// General valid covering for even n = 2p (used for n >= 14):
///   - p antipodal triangles (x, x+1, x+p), x in [0, p-1], covering every
///     antipodal chord plus half of the distance-1 and distance-(p-1)
///     chords;
///   - p quads (a, a+1, a+p, a+p+1), a in [p, 2p-1], closing the other
///     half of distances 1 and p-1;
///   - full pair-quad families Q(x, d) = (x, x+d, x+p, x+p+d) for every
///     remaining distance class pair {d, p-d} (self-paired class p/2 needs
///     only p/2 quads).
///
/// Size: (p^2+p)/2 = rho(n) + floor((p-1)/2) cycles — valid for every even
/// n but additively above the optimum. Closing this gap constructively for
/// all even n is the one part of Theorem 2 this library reproduces exactly
/// only for n <= 12 (where the exact solver certifies the theorem); for
/// example n = 14 gives 28 cycles against rho = 25.
RingCover fallback_even(std::uint32_t n) {
  const Vertex p = n / 2;
  const bool self_paired = p % 2 == 0 && p / 2 >= 2;
  const std::size_t pair_classes = (p - 1) / 2 - 1;  // d = 2..(p-1)/2, p >= 3
  const std::size_t quads =
      std::size_t{p} * (1 + pair_classes) + (self_paired ? p / 2 : 0);
  RingCover cover(n);
  cover.reserve(p + quads, 3 * std::size_t{p} + 4 * quads);
  auto at = [n](std::uint32_t v) { return static_cast<Vertex>(v % n); };
  for (Vertex x = 0; x < p; ++x)
    push_sorted<3>(cover, {at(x), at(x + 1), at(x + p)});
  for (Vertex a = p; a < 2 * p; ++a)
    push_sorted<4>(cover, {at(a), at(a + 1), at(a + p), at(a + p + 1)});
  for (Vertex d = 2; d < p - d; ++d)
    for (Vertex x = 0; x < p; ++x)
      push_sorted<4>(cover, {at(x), at(x + d), at(x + p), at(x + p + d)});
  if (self_paired)
    for (Vertex x = 0; x < p / 2; ++x)
      push_sorted<4>(cover,
                     {at(x), at(x + p / 2), at(x + p), at(x + p + p / 2)});
  return cover;
}

}  // namespace

RingCover construct_even_cover(std::uint32_t n) {
  if (n < 4 || n % 2 == 1)
    throw std::invalid_argument("construct_even_cover: even n >= 4 required");
  if (n == 4) return base4();
  if (n == 6) return base6();
  if (n == 10) return base10();
  if (n == 8) {
    RingCover cover = base6();
    even_step(cover, 8);
    return cover;
  }
  if (n == 12) {
    RingCover cover = base10();
    even_step(cover, 12);
    return cover;
  }
  return fallback_even(n);
}

}  // namespace ccov::covering
