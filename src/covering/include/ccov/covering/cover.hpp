#pragma once
/// \file cover.hpp
/// DRC-coverings: collections of DRC cycles whose chords cover a demand
/// graph (K_n unless stated otherwise), plus the validator used throughout
/// the library to certify construction output.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "ccov/covering/cycle.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::covering {

class CycleRange;

/// A covering of demands on ring C_n by logical cycles (the sub-networks
/// I_k), stored flat: every cycle's vertices back to back in `verts`, and
/// in `offsets` the end of each cycle there, so cycle i is
/// verts[offsets[i-1], offsets[i]) with offsets[-1] read as 0. A cover of
/// any size is two heap blocks, so building, copying, relabelling and
/// serializing it are linear passes over one array. An empty cover
/// allocates nothing.
///
/// Cycles are handed out as spans into `verts`: a span stays valid while
/// the cover lives and is not appended to (an append may reallocate
/// `verts`). Build a cover with one reserve() and then add() per cycle.
struct RingCover {
  std::uint32_t n = 0;                 ///< ring / instance size
  std::vector<Vertex> verts;           ///< all cycles' vertices, in order
  std::vector<std::uint32_t> offsets;  ///< offsets[i]: end of cycle i

  RingCover() = default;
  explicit RingCover(std::uint32_t ring_size) : n(ring_size) {}
  /// A cover from literal cycles: RingCover{4, {{0, 1, 2, 3}, {0, 1, 3}}}.
  RingCover(std::uint32_t ring_size,
            std::initializer_list<std::initializer_list<Vertex>> cycles);

  std::size_t size() const { return offsets.size(); }
  bool empty() const { return offsets.empty(); }

  std::span<const Vertex> cycle(std::size_t i) const {
    const std::uint32_t b = i == 0 ? 0 : offsets[i - 1];
    return {verts.data() + b, offsets[i] - b};
  }
  /// The cycles in order, as spans (see CycleRange). Not on a temporary:
  /// `for (auto c : make_cover().cycles())` would read a dead cover.
  CycleRange cycles() const&;
  CycleRange cycles() const&& = delete;

  /// Room for `cycles` more cycles of `vertices` more vertices in all.
  void reserve(std::size_t cycles, std::size_t vertices) {
    offsets.reserve(offsets.size() + cycles);
    verts.reserve(verts.size() + vertices);
  }
  void add(Vertex a, Vertex b, Vertex c) {
    verts.insert(verts.end(), {a, b, c});
    close_cycle();
  }
  void add(Vertex a, Vertex b, Vertex c, Vertex d) {
    verts.insert(verts.end(), {a, b, c, d});
    close_cycle();
  }
  /// Append a copy of `c`, which must not view this cover's own `verts`.
  void add(std::span<const Vertex> c) {
    verts.insert(verts.end(), c.begin(), c.end());
    close_cycle();
  }
  /// Append every cycle of `other` (which must not be this cover).
  void append(const RingCover& other);
  void clear() {
    verts.clear();
    offsets.clear();
  }

  friend bool operator==(const RingCover&, const RingCover&) = default;

 private:
  /// End the cycle whose vertices were just appended. Offsets are u32, so
  /// a cover holds at most 2^32 - 1 vertices in all.
  void close_cycle();
};

/// Forward range over a cover's cycles, each a std::span<const Vertex>
/// into the cover's `verts`. It walks `offsets` once, so iterating costs
/// no more than the flat arrays it reads.
class CycleRange {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = std::span<const Vertex>;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const Vertex* verts, const std::uint32_t* end, std::uint32_t begin)
        : verts_(verts), end_(end), begin_(begin) {}

    value_type operator*() const { return {verts_ + begin_, *end_ - begin_}; }
    iterator& operator++() {
      begin_ = *end_++;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.end_ == b.end_;
    }

   private:
    const Vertex* verts_ = nullptr;
    const std::uint32_t* end_ = nullptr;
    std::uint32_t begin_ = 0;
  };

  explicit CycleRange(const RingCover& cover) : cover_(&cover) {}
  iterator begin() const {
    return {cover_->verts.data(), cover_->offsets.data(), 0};
  }
  iterator end() const {
    return {cover_->verts.data(),
            cover_->offsets.data() + cover_->offsets.size(), 0};
  }
 private:
  const RingCover* cover_;
};

inline CycleRange RingCover::cycles() const& { return CycleRange(*this); }

/// Count of cycles by length: composition[k] = number of C_k in the cover.
std::vector<std::size_t> composition(const RingCover& cover);

/// Number of triangles / quadrilaterals (the sizes in Theorems 1 and 2).
std::size_t count_c3(const RingCover& cover);
std::size_t count_c4(const RingCover& cover);

struct ValidationReport {
  bool ok = false;
  std::string error;                 ///< first failure, empty when ok
  std::size_t uncovered_chords = 0;  ///< demands with zero coverage
  std::size_t duplicate_coverage = 0;///< extra coverages beyond the demand
  std::size_t non_drc_cycles = 0;    ///< cycles violating the DRC
};

/// Validate against the all-to-all demand K_n: every cycle must satisfy the
/// DRC on C_n and every chord of K_n must be covered at least once.
///
/// Report: the first structurally invalid cycle (fewer than 3 vertices, a
/// vertex >= n, a repeat) ends the check with that error; otherwise each
/// DRC violation is counted in non_drc_cycles, the first one named, and
/// coverage is not reported. Otherwise uncovered_chords sums each demand
/// chord's shortfall, the lexicographically first short chord named;
/// duplicate_coverage sums coverage beyond the demand, chords outside it
/// included. One pass over the cycles into a flat counter per chord of
/// K_n: O(n^2 + sum of cycle lengths) time, n(n-1)/2 counters.
ValidationReport validate_cover(const RingCover& cover);

/// Validate against an arbitrary demand (multi)graph: each demand edge
/// must be covered with at least its multiplicity. Same report as
/// validate_cover; a demand edge with a vertex >= cover.n is simply never
/// covered. Counters exist only for the m demand edges, found by binary
/// search: O((m + sum of cycle lengths) log m) time and O(m) counters,
/// whatever n is (plus n stamps once a cycle fails the DRC).
ValidationReport validate_cover_against(const RingCover& cover,
                                        const graph::Graph& demand);

/// The same check against a demand given as a chord list, read as a set
/// (as validate_cover_against of demand_graph's Graph reads it): each
/// chord is normalized u <= v, packed, sorted and de-duplicated straight
/// into the counter slots, with no Graph in between. A chord with u == v
/// or a vertex >= cover.n is a demand no cycle covers.
ValidationReport validate_cover_against(const RingCover& cover,
                                        std::span<const graph::Edge> demand);

/// Concatenated rendering of every cycle, "(0 1 2)(0 2 3)...": a compact
/// byte-comparable fingerprint of a cover, used by the golden tests.
std::string to_string(const RingCover& cover);

/// Human-readable one-line summary: "n=9: 10 cycles (3 C3, 7 C4), valid".
std::string summary(const RingCover& cover);

}  // namespace ccov::covering
