#include "ccov/covering/drc.hpp"

#include <algorithm>

#include "ccov/ring/tiling.hpp"

namespace ccov::covering {

int drc_winding(std::uint32_t n, std::span<const Vertex> c) {
  const std::size_t k = c.size();
  if (k < 3) return 0;
  std::uint64_t fwd = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Vertex u = c[i];
    const Vertex v = c[i + 1 == k ? 0 : i + 1];
    if (u >= n || u == v) return 0;
    fwd += v > u ? v - u : std::uint64_t{n} - (u - v);
  }
  if (fwd == n) return 1;
  if (fwd == (k - 1) * std::uint64_t{n}) return -1;
  return 0;
}

bool is_circularly_ordered(const ring::Ring& r, const Cycle& c) {
  return drc_winding(r.size(), c) != 0;
}

std::optional<std::vector<ring::Arc>> drc_route(const ring::Ring& r,
                                                const Cycle& c) {
  const int winding = drc_winding(r.size(), c);
  if (winding == 0) return std::nullopt;
  Cycle seq = c;
  if (winding < 0) std::reverse(seq.begin(), seq.end());
  std::vector<ring::Arc> arcs;
  arcs.reserve(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Vertex u = seq[i];
    const Vertex v = seq[(i + 1) % seq.size()];
    arcs.push_back(ring::Arc{u, r.cw_dist(u, v)});
  }
  return arcs;
}

bool satisfies_drc_bruteforce(const ring::Ring& r, const Cycle& c) {
  if (!is_valid_cycle(c, r.size())) return false;
  const std::size_t k = c.size();
  // Each logical edge picks the clockwise (bit 0) or counterclockwise
  // (bit 1) arc; check all 2^k assignments for pairwise disjointness.
  for (std::uint64_t mask = 0; mask < (1ULL << k); ++mask) {
    std::vector<ring::Arc> arcs;
    arcs.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Vertex u = c[i];
      const Vertex v = c[(i + 1) % k];
      const std::uint32_t d = r.cw_dist(u, v);
      arcs.push_back((mask >> i) & 1 ? ring::Arc{v, r.size() - d}
                                     : ring::Arc{u, d});
    }
    if (ring::max_load(r, arcs) <= 1) return true;
  }
  return false;
}

}  // namespace ccov::covering
