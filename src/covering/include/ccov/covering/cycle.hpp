#pragma once
/// \file cycle.hpp
/// Logical cycles: the sub-networks I_k of the paper. A cycle is a sequence
/// of >= 3 distinct vertices; it covers the request (chord) between each
/// pair of cyclically consecutive vertices. The helpers here read any
/// cycle as a std::span<const Vertex>: a view into a RingCover's flat
/// vertex array (valid while that cover is not appended to), an owned
/// Cycle or a SmallCycle.

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccov/ring/ring.hpp"

namespace ccov::covering {

using Vertex = ring::Vertex;

/// An owned vertex sequence of one logical cycle, for a cycle that lives
/// outside a cover (canonical forms, candidate lists, file I/O).
/// Rotations and reversal denote the same cycle; see canonical().
using Cycle = std::vector<Vertex>;

/// Inline fixed-capacity cycle for the allocation-free hot paths of the
/// solver and greedy. Vertices live in-object (no heap); capacity 4 is
/// exactly the C3/C4 branching the search performs (Theorems 1–2 only
/// need cycles of sizes {3, 4}). A witness is appended to its RingCover
/// straight from view(); to_cycle() makes an owned copy.
struct SmallCycle {
  static constexpr std::size_t kCapacity = 4;

  std::array<Vertex, kCapacity> v{};
  std::uint32_t len = 0;

  SmallCycle() = default;
  SmallCycle(Vertex a, Vertex b, Vertex c) : v{a, b, c, 0}, len(3) {}
  SmallCycle(Vertex a, Vertex b, Vertex c, Vertex d) : v{a, b, c, d}, len(4) {}

  std::size_t size() const { return len; }
  Vertex operator[](std::size_t i) const { return v[i]; }
  Vertex& operator[](std::size_t i) { return v[i]; }

  void push_back(Vertex x) {
    assert(len < kCapacity);
    v[len++] = x;
  }

  std::span<const Vertex> view() const { return {v.data(), len}; }
  Cycle to_cycle() const { return Cycle(v.begin(), v.begin() + len); }

  friend bool operator==(const SmallCycle& a, const SmallCycle& b) {
    if (a.len != b.len) return false;
    for (std::uint32_t i = 0; i < a.len; ++i)
      if (a.v[i] != b.v[i]) return false;
    return true;
  }
};

/// Visit the chords (logical edges) of a cycle, normalized u < v, without
/// materializing a vector — the allocation-free counterpart of
/// cycle_chords(). Works for spans, Cycle and SmallCycle (anything with
/// size() and operator[]).
template <typename CycleT, typename Fn>
inline void for_each_chord(const CycleT& c, Fn&& fn) {
  const std::size_t k = c.size();
  for (std::size_t i = 0; i < k; ++i) {
    Vertex u = c[i];
    Vertex v = c[i + 1 == k ? 0 : i + 1];
    if (u > v) std::swap(u, v);
    fn(u, v);
  }
}

/// True when the sequence is a structurally valid cycle: >= 3 vertices,
/// all distinct, all < n. Allocation-free: O(k) when the sequence is
/// circularly ordered on C_n (see drc_winding), O(k^2) otherwise.
bool is_valid_cycle(std::span<const Vertex> c, std::uint32_t n);

/// The chords (logical edges) covered by the cycle, normalized u < v.
std::vector<std::pair<Vertex, Vertex>> cycle_chords(std::span<const Vertex> c);

/// Canonical form: lexicographically smallest rotation/reflection. Two
/// sequences denote the same cycle iff their canonical forms are equal.
Cycle canonical(std::span<const Vertex> c);

/// "(v0 v1 ... vk)" rendering for logs and examples.
std::string to_string(std::span<const Vertex> c);

}  // namespace ccov::covering
