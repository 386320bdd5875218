#include "ccov/covering/canonical.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace ccov::covering {

namespace {

std::vector<Cycle> normalized_cycles(const RingCover& cover) {
  std::vector<Cycle> cs;
  cs.reserve(cover.size());
  for (const auto c : cover.cycles()) cs.push_back(canonical(c));
  std::sort(cs.begin(), cs.end());
  return cs;
}

RingCover map_cover(const RingCover& cover,
                    const std::function<Vertex(Vertex)>& f) {
  RingCover out = cover;
  for (Vertex& v : out.verts) v = f(v);
  return out;
}

}  // namespace

RingCover rotate_cover(const RingCover& cover, std::uint32_t shift) {
  const std::uint32_t n = cover.n;
  return map_cover(cover, [n, shift](Vertex v) {
    return static_cast<Vertex>((v + shift) % n);
  });
}

RingCover reflect_cover(const RingCover& cover) {
  const std::uint32_t n = cover.n;
  return map_cover(cover,
                   [n](Vertex v) { return static_cast<Vertex>((n - v) % n); });
}

RingCover canonical_cover(const RingCover& cover) {
  std::vector<Cycle> best_cycles;
  for (int refl = 0; refl < 2; ++refl) {
    const RingCover base = refl ? reflect_cover(cover) : cover;
    for (std::uint32_t s = 0; s < cover.n; ++s) {
      auto cs = normalized_cycles(rotate_cover(base, s));
      if (best_cycles.empty() || cs < best_cycles) best_cycles = std::move(cs);
    }
  }
  RingCover best(cover.n);
  for (const Cycle& c : best_cycles) best.add(c);
  return best;
}

bool covers_isomorphic(const RingCover& a, const RingCover& b) {
  if (a.n != b.n || a.size() != b.size()) return false;
  return canonical_cover(a) == canonical_cover(b);
}

std::size_t orbit_size(const RingCover& cover) {
  std::set<std::vector<Cycle>> images;
  for (int refl = 0; refl < 2; ++refl) {
    const RingCover base = refl ? reflect_cover(cover) : cover;
    for (std::uint32_t s = 0; s < cover.n; ++s)
      images.insert(normalized_cycles(rotate_cover(base, s)));
  }
  return images.size();
}

}  // namespace ccov::covering
