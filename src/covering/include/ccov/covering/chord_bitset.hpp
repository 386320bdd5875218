#pragma once
/// \file chord_bitset.hpp
/// Packed bitset over the chords (a, b), a < b, of K_n. This is the
/// word-parallel state representation behind the exact solver and the
/// triple-cover baseline: chord (a, b) maps to bit a*n + b, so
/// lexicographic order on chords equals ascending bit index and "first
/// uncovered chord" is a countr_zero scan instead of an O(n^2) rescan.
///
/// All mutating operations are O(1); scans are O(n^2 / 64) words. The
/// only allocation is the word vector in the constructor — the solver
/// reuses one instance for an entire search.

#include <bit>
#include <cstdint>
#include <vector>

#include "ccov/ring/ring.hpp"

namespace ccov::covering {

class ChordBitset {
 public:
  using Vertex = ring::Vertex;

  ChordBitset() = default;
  explicit ChordBitset(std::uint32_t n)
      : n_(n), words_((static_cast<std::size_t>(n) * n + 63) / 64, 0) {}

  std::uint32_t n() const { return n_; }

  /// Bit index of chord (a, b); callers normalize a < b.
  std::size_t index(Vertex a, Vertex b) const {
    return static_cast<std::size_t>(a) * n_ + b;
  }

  bool test(Vertex a, Vertex b) const {
    const std::size_t i = index(a, b);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(Vertex a, Vertex b) {
    const std::size_t i = index(a, b);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void clear(Vertex a, Vertex b) {
    const std::size_t i = index(a, b);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Set every chord of K_n (all pairs a < b).
  void set_all_chords() {
    for (Vertex a = 0; a < n_; ++a)
      for (Vertex b = a + 1; b < n_; ++b) set(a, b);
  }

  bool none() const {
    for (const std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  /// Lexicographically first set chord; false when empty.
  bool first(Vertex& a, Vertex& b) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] == 0) continue;
      const std::size_t i = (wi << 6) + std::countr_zero(words_[wi]);
      a = static_cast<Vertex>(i / n_);
      b = static_cast<Vertex>(i % n_);
      return true;
    }
    return false;
  }

 private:
  std::uint32_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ccov::covering
