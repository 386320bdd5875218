#include "ccov/baselines/c4_cover.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "ccov/util/ints.hpp"

namespace ccov::baselines {

std::uint64_t c4_covering_lower_bound(std::uint32_t n) {
  if (n < 4) throw std::invalid_argument("c4_covering_lower_bound: n >= 4");
  const std::uint64_t N = n;
  const std::uint64_t edges_bound = util::ceil_div<std::uint64_t>(N * (N - 1), 8);
  const std::uint64_t per_vertex = util::ceil_div<std::uint64_t>(N - 1, 2);
  const std::uint64_t vertex_bound = util::ceil_div<std::uint64_t>(N * per_vertex, 4);
  return std::max(edges_bound, vertex_bound);
}

covering::RingCover greedy_c4_cover(std::uint32_t n) {
  using covering::Vertex;
  std::set<std::pair<Vertex, Vertex>> uncovered;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b) uncovered.insert({a, b});
  auto has = [&](Vertex u, Vertex v) {
    return uncovered.count({std::min(u, v), std::max(u, v)}) > 0;
  };
  auto erase = [&](Vertex u, Vertex v) {
    uncovered.erase({std::min(u, v), std::max(u, v)});
  };

  covering::RingCover out(n);
  while (!uncovered.empty()) {
    const auto [a, b] = *uncovered.begin();
    // Choose c, d maximizing fresh edges of the 4-cycle (a, b, c, d).
    Vertex bc = 0, bd = 0;
    int best = -1;
    for (Vertex c = 0; c < n; ++c) {
      if (c == a || c == b) continue;
      for (Vertex d = 0; d < n; ++d) {
        if (d == a || d == b || d == c) continue;
        const int fresh = 1 + (has(b, c) ? 1 : 0) + (has(c, d) ? 1 : 0) +
                          (has(d, a) ? 1 : 0);
        if (fresh > best) {
          best = fresh;
          bc = c;
          bd = d;
        }
      }
    }
    erase(a, b);
    erase(b, bc);
    erase(bc, bd);
    erase(bd, a);
    out.add(a, b, bc, bd);
  }
  return out;
}

}  // namespace ccov::baselines
