#include "ccov/covering/cycle.hpp"

#include <algorithm>

#include "ccov/covering/drc.hpp"

namespace ccov::covering {

bool is_valid_cycle(const Cycle& c, std::uint32_t n) {
  const std::size_t k = c.size();
  if (k < 3 || k > n) return false;
  for (Vertex v : c)
    if (v >= n) return false;
  // A sequence that winds once around C_n has distinct vertices by
  // construction; only the others need the pairwise scan.
  if (drc_winding(n, c) != 0) return true;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j)
      if (c[i] == c[j]) return false;
  return true;
}

std::vector<std::pair<Vertex, Vertex>> cycle_chords(const Cycle& c) {
  std::vector<std::pair<Vertex, Vertex>> out;
  out.reserve(c.size());
  for_each_chord(c, [&](Vertex u, Vertex v) { out.emplace_back(u, v); });
  return out;
}

Cycle canonical(const Cycle& c) {
  if (c.empty()) return c;
  Cycle best;
  Cycle cur = c;
  for (int rev = 0; rev < 2; ++rev) {
    for (std::size_t s = 0; s < cur.size(); ++s) {
      Cycle rot(cur.size());
      for (std::size_t i = 0; i < cur.size(); ++i)
        rot[i] = cur[(s + i) % cur.size()];
      if (best.empty() || rot < best) best = rot;
    }
    std::reverse(cur.begin(), cur.end());
  }
  return best;
}

std::string to_string(const Cycle& c) {
  std::string s = "(";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) s += ' ';
    s += std::to_string(c[i]);
  }
  s += ')';
  return s;
}

}  // namespace ccov::covering
