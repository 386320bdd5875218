#pragma once
/// \file reference_construct.hpp
/// The Theorem 1 construction for odd n as the library ran it before it
/// built every cycle in its final labels: replay the induction
/// K_{2p-1} -> K_{2p+1} step by step, relabelling every earlier cycle
/// at each step (O(n^3) in total). Beside it, the general even
/// construction (n >= 14) as it ran before it reserved its cycles and
/// sorted each one on the stack. ccov::covering::build_optimal_cover
/// must reproduce both cycle for cycle; the oracle test in
/// construct_test.cpp compares against them.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ccov/covering/cover.hpp"

namespace ccov::covering::reference {

inline RingCover construct_odd_cover(std::uint32_t n) {
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

inline RingCover fallback_even(std::uint32_t n) {
  const auto sorted_cycle = [](std::vector<Vertex> vs) {
    std::sort(vs.begin(), vs.end());
    return vs;
  };
  const Vertex p = n / 2;
  RingCover cover;
  cover.n = n;
  auto at = [n](std::uint32_t v) { return static_cast<Vertex>(v % n); };
  for (Vertex x = 0; x < p; ++x)
    cover.cycles.push_back(sorted_cycle({at(x), at(x + 1), at(x + p)}));
  for (Vertex a = p; a < 2 * p; ++a)
    cover.cycles.push_back(
        sorted_cycle({at(a), at(a + 1), at(a + p), at(a + p + 1)}));
  for (Vertex d = 2; d < p - d; ++d)
    for (Vertex x = 0; x < p; ++x)
      cover.cycles.push_back(
          sorted_cycle({at(x), at(x + d), at(x + p), at(x + p + d)}));
  if (p % 2 == 0 && p / 2 >= 2)
    for (Vertex x = 0; x < p / 2; ++x)
      cover.cycles.push_back(
          sorted_cycle({at(x), at(x + p / 2), at(x + p), at(x + p + p / 2)}));
  return cover;
}

}  // namespace ccov::covering::reference
