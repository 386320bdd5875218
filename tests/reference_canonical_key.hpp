#pragma once
/// \file reference_canonical_key.hpp
/// The canonical cache key by definition: build every one of the 2n
/// D_n-images of the demand, sort each, and keep the lexicographically
/// least, scanning reflect = 0 then 1 and each shift in increasing order
/// with strict `<` (so ties keep the first minimizer). O(n * m log m).
/// ccov::engine::canonical_request_key must match it byte for byte, key
/// and group element; the oracle test and the fuzz_canonical_key harness
/// compare against it. Defined only for demands with every vertex < n.
///
/// apply_element/apply_inverse below are the D_n action on covers as
/// the cache applied it before it relabelled its own copy in place: a
/// fresh cover through covering::reflect_cover and rotate_cover.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccov/covering/canonical.hpp"
#include "ccov/engine/cache.hpp"

namespace ccov::engine::reference {

inline CanonicalKey canonical_request_key(const CoverRequest& req) {
  using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  const std::uint32_t n = req.n;
  const auto transform = [&](bool reflect, std::uint32_t shift) {
    EdgeList out;
    for (const auto& e : req.demand) {
      const auto map = [&](std::uint32_t v) {
        const std::uint32_t r = reflect ? (n - v) % n : v;
        return (r + shift) % n;
      };
      std::uint32_t u = map(e.u), v = map(e.v);
      if (u > v) std::swap(u, v);
      out.emplace_back(u, v);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  CanonicalKey out;
  std::string& key = out.key;
  key = req.algorithm + "|n=" + std::to_string(req.n) +
        "|b=" + std::to_string(req.budget) +
        "|l=" + std::to_string(req.lambda) +
        "|mcl=" + std::to_string(req.solver.max_cycle_len) +
        "|mn=" + std::to_string(req.solver.max_nodes) +
        "|cp=" + std::to_string(req.solver.use_capacity_prune ? 1 : 0) +
        "|v=" + std::to_string(req.validate ? 1 : 0);
  if (req.demand.empty() || n == 0) {
    key += "|K_n";
    return out;
  }
  EdgeList best;
  bool have_best = false;
  for (int refl = 0; refl < 2; ++refl) {
    for (std::uint32_t s = 0; s < n; ++s) {
      EdgeList img = transform(refl != 0, s);
      if (!have_best || img < best) {
        best = std::move(img);
        out.to_canonical = {refl != 0, s};
        have_best = true;
      }
    }
  }
  key += "|D";
  for (const auto& [u, v] : best)
    key += " " + std::to_string(u) + "-" + std::to_string(v);
  return out;
}

inline covering::RingCover apply_element(const covering::RingCover& cover,
                                         const DihedralElement& g) {
  if (cover.n == 0 || (!g.reflect && g.shift % cover.n == 0)) return cover;
  const covering::RingCover tmp =
      g.reflect ? covering::reflect_cover(cover) : cover;
  return covering::rotate_cover(tmp, g.shift % cover.n);
}

inline covering::RingCover apply_inverse(const covering::RingCover& cover,
                                         const DihedralElement& g) {
  if (cover.n == 0 || (!g.reflect && g.shift % cover.n == 0)) return cover;
  // g = rot_s . refl^r, so g^{-1} = refl^r . rot_{-s}.
  const covering::RingCover tmp = covering::rotate_cover(
      cover, (cover.n - g.shift % cover.n) % cover.n);
  return g.reflect ? covering::reflect_cover(tmp) : tmp;
}

}  // namespace ccov::engine::reference
