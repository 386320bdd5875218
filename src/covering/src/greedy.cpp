#include "ccov/covering/greedy.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccov::covering {

namespace {

// The uncovered chords live in symmetric adjacency rows: row x is an
// n-bit set of ceil(n/64) words holding y iff chord {x, y} is
// uncovered. For the chord (a, b), rows a and b tell which chords at a
// or b are fresh and row w which chords (w, z) are, so the best partner
// z of a third vertex w is a word scan over row w combined with row a
// or b, not one probe per pair. Candidate cycles are fixed-capacity
// SmallCycles, so a run allocates nothing beyond the rows and the
// returned cover.

/// First z in [lo, hi) whose bit is set in word(z / 64); hi when none.
template <typename WordFn>
Vertex first_set(Vertex lo, Vertex hi, WordFn word) {
  if (lo >= hi) return hi;
  const std::size_t last = (hi - 1) >> 6;
  std::size_t wi = lo >> 6;
  std::uint64_t bits = word(wi) & (~std::uint64_t{0} << (lo & 63));
  while (bits == 0 && wi != last) bits = word(++wi);
  if (wi == last) bits &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
  if (bits == 0) return hi;
  return static_cast<Vertex>((wi << 6) + std::countr_zero(bits));
}

class ChordRows {
 public:
  explicit ChordRows(std::uint32_t n)
      : n_(n),
        stride_((static_cast<std::size_t>(n) + 63) / 64),
        words_(n * stride_, 0) {}

  std::uint32_t n() const { return n_; }

  const std::uint64_t* row(Vertex x) const {
    return words_.data() + x * stride_;
  }

  static bool bit(const std::uint64_t* row, Vertex y) {
    return (row[y >> 6] >> (y & 63)) & 1u;
  }

  bool test(Vertex x, Vertex y) const { return bit(row(x), y); }

  void set(Vertex x, Vertex y) {
    mut(x)[y >> 6] |= std::uint64_t{1} << (y & 63);
    mut(y)[x >> 6] |= std::uint64_t{1} << (x & 63);
  }

  void clear(Vertex x, Vertex y) {
    mut(x)[y >> 6] &= ~(std::uint64_t{1} << (y & 63));
    mut(y)[x >> 6] &= ~(std::uint64_t{1} << (x & 63));
  }

  /// Lexicographically first uncovered chord (a, b), a < b; false when
  /// none. Chords are only ever cleared, so the first one never moves
  /// backwards and the row cursor only advances.
  bool first(Vertex& a, Vertex& b) {
    for (; cursor_ < n_; ++cursor_) {
      const std::uint64_t* r = row(cursor_);
      const auto word = [r](std::size_t i) { return r[i]; };
      const Vertex z = first_set(cursor_ + 1, n_, word);
      if (z < n_) {
        a = cursor_;
        b = z;
        return true;
      }
    }
    return false;
  }

 private:
  std::uint64_t* mut(Vertex x) { return words_.data() + x * stride_; }

  std::uint32_t n_;
  std::size_t stride_;
  std::vector<std::uint64_t> words_;
  Vertex cursor_ = 0;
};

SmallCycle sorted3(Vertex a, Vertex b, Vertex c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return {a, b, c};
}

SmallCycle sorted4(Vertex a, Vertex b, Vertex c, Vertex d) {
  if (a > b) std::swap(a, b);
  if (c > d) std::swap(c, d);
  if (a > c) std::swap(a, c);
  if (b > d) std::swap(b, d);
  if (b > c) std::swap(b, c);
  return {a, b, c, d};
}

/// The freshest C3/C4 through the uncovered chord (a, b), a < b: the
/// first candidate with the most uncovered chords in the order w
/// ascending, triangle (a, b, w) before the quads (a, b, w, z), z > w
/// ascending on the same side of (a, b) as w. Each w costs O(1) plus a
/// few word scans, O(n * ceil(n/64)) words per cycle in all.
SmallCycle best_cycle_through(const ChordRows& rows, Vertex a, Vertex b) {
  const std::uint32_t n = rows.n();
  const std::uint64_t* A = rows.row(a);
  const std::uint64_t* B = rows.row(b);
  SmallCycle best;
  int best_fresh = -1;

  // Quads (a, b, w, z) with z in [lo, hi): the sorted quad joins w to
  // one of a, b (c = 1 when that chord is fresh) and z to the other
  // (row Z), so fresh = 1 + c + R[z] + Z[z]. Only levels that beat
  // best_fresh are scanned, highest first; the first z reaching a level
  // is the one an ascending scan with strict > keeps.
  const auto quads = [&](Vertex w, const std::uint64_t* R, int c,
                         const std::uint64_t* Z, Vertex lo, Vertex hi) {
    const auto both = [&](std::size_t i) { return R[i] & Z[i]; };
    const auto either = [&](std::size_t i) { return R[i] | Z[i]; };
    for (int level = 2; level >= 0 && 1 + c + level > best_fresh; --level) {
      Vertex z = lo;
      if (level == 2) z = first_set(lo, hi, both);
      if (level == 1) z = first_set(lo, hi, either);
      if (z < hi) {
        best_fresh = 1 + c + level;
        best = sorted4(a, b, w, z);
        return;
      }
    }
  };

  for (Vertex w = 0; w < n; ++w) {
    if (w == a || w == b) continue;
    const int in_a = ChordRows::bit(A, w);
    const int in_b = ChordRows::bit(B, w);
    if (1 + in_a + in_b > best_fresh) {
      best_fresh = 1 + in_a + in_b;
      best = sorted3(a, b, w);
    }
    const std::uint64_t* R = rows.row(w);
    if (w < a) {
      quads(w, R, in_b, A, w + 1, a);  // (w z a b)
      quads(w, R, in_a, B, b + 1, n);  // (w a b z)
    } else if (w < b) {
      quads(w, R, in_a, B, w + 1, b);  // (a w z b)
    } else {
      quads(w, R, in_b, A, w + 1, n);  // (a b w z)
    }
    if (best_fresh == 4) break;  // every chord fresh: nothing beats it
  }
  return best;
}

RingCover greedy_impl(ChordRows uncovered, std::size_t remaining) {
  const std::uint32_t n = uncovered.n();
  if (n < 3 && remaining > 0)
    throw std::invalid_argument(
        "greedy_cover: no C3/C4 covers a chord of a ring of size " +
        std::to_string(n));
  RingCover cover(n);
  // Each cycle covers at least one chord: at most `remaining` of them.
  cover.reserve(remaining, 4 * remaining);
  Vertex a = 0, b = 0;
  while (remaining > 0 && uncovered.first(a, b)) {
    const SmallCycle c = best_cycle_through(uncovered, a, b);
    for_each_chord(c, [&](Vertex u, Vertex v) {
      if (uncovered.test(u, v)) {
        uncovered.clear(u, v);
        --remaining;
      }
    });
    cover.add(c.view());
  }
  return cover;
}

}  // namespace

RingCover greedy_cover(std::uint32_t n) {
  ChordRows uncovered(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) uncovered.set(u, v);
  return greedy_impl(std::move(uncovered),
                     static_cast<std::size_t>(n) * (n - 1) / 2);
}

RingCover greedy_cover_demand(std::uint32_t n, const graph::Graph& demand) {
  return greedy_cover_chords(n, demand.edges());
}

RingCover greedy_cover_chords(std::uint32_t n,
                              std::span<const graph::Edge> chords) {
  for (const auto& e : chords)
    if (e.u == e.v)
      throw std::invalid_argument("Graph: self-loops not supported");
  ChordRows uncovered(n);
  std::size_t remaining = 0;
  for (const auto& e : chords) {
    if (e.u >= n || e.v >= n)
      throw std::invalid_argument(
          "greedy_cover_demand: demand vertex out of range for ring size " +
          std::to_string(n));
    if (!uncovered.test(e.u, e.v)) {
      uncovered.set(e.u, e.v);
      ++remaining;
    }
  }
  return greedy_impl(std::move(uncovered), remaining);
}

}  // namespace ccov::covering
