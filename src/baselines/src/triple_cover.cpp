#include "ccov/baselines/triple_cover.hpp"

#include <stdexcept>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/drc.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::baselines {

std::uint64_t triple_covering_number(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("triple_covering_number: n >= 3");
  const std::uint64_t N = n;
  const std::uint64_t per_vertex = util::ceil_div<std::uint64_t>(N - 1, 2);
  return util::ceil_div<std::uint64_t>(N * per_vertex, 3);
}

std::vector<covering::Cycle> greedy_triple_cover(std::uint32_t n) {
  using covering::Vertex;
  covering::ChordBitset uncovered(n);
  uncovered.set_all_chords();
  const auto open = [&](Vertex u, Vertex v) {
    return u < v ? uncovered.test(u, v) : uncovered.test(v, u);
  };

  std::vector<covering::Cycle> out;
  Vertex a = 0, b = 0;
  while (uncovered.first(a, b)) {
    // Pick the third vertex completing the most uncovered pairs.
    Vertex best = (a + 1) % n;
    int best_fresh = -1;
    for (Vertex w = 0; w < n; ++w) {
      if (w == a || w == b) continue;
      const int fresh = 1 + open(a, w) + open(b, w);  // 1 for (a, b) itself
      if (fresh > best_fresh) {
        best_fresh = fresh;
        best = w;
      }
    }
    covering::Cycle tri{a, b, best};
    covering::for_each_chord(
        tri, [&](Vertex u, Vertex v) { uncovered.clear(u, v); });
    out.push_back(std::move(tri));
  }
  return out;
}

std::size_t count_drc_feasible(std::uint32_t n,
                               const std::vector<covering::Cycle>& cycles) {
  const ring::Ring r(n);
  std::size_t ok = 0;
  for (const auto& c : cycles)
    if (covering::satisfies_drc(r, c)) ++ok;
  return ok;
}

}  // namespace ccov::baselines
