#include "ccov/covering/cover.hpp"

#include <algorithm>

#include "ccov/covering/drc.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::covering {

std::vector<std::size_t> composition(const RingCover& cover) {
  std::size_t maxlen = 0;
  for (const Cycle& c : cover.cycles) maxlen = std::max(maxlen, c.size());
  std::vector<std::size_t> comp(maxlen + 1, 0);
  for (const Cycle& c : cover.cycles) comp[c.size()] += 1;
  return comp;
}

std::size_t count_c3(const RingCover& cover) {
  return static_cast<std::size_t>(
      std::count_if(cover.cycles.begin(), cover.cycles.end(),
                    [](const Cycle& c) { return c.size() == 3; }));
}

std::size_t count_c4(const RingCover& cover) {
  return static_cast<std::size_t>(
      std::count_if(cover.cycles.begin(), cover.cycles.end(),
                    [](const Cycle& c) { return c.size() == 4; }));
}

namespace {

/// The all-to-all demand K_n: chord (u, v), u < v, owns slot
/// u*(2n-u-1)/2 + (v-u-1), its rank in lexicographic order, with
/// multiplicity 1. Every chord of a structurally valid cycle has a slot.
struct CompleteDemand {
  std::uint32_t n;

  std::vector<std::int64_t> multiplicities() const {
    return std::vector<std::int64_t>(std::size_t{n} * (n - 1) / 2, 1);
  }
  std::size_t slot(Vertex u, Vertex v) const {
    return std::size_t{u} * (2 * std::size_t{n} - u - 1) / 2 + (v - u - 1);
  }
  /// fn(slot, u, v, multiplicity) for every slot in order.
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    std::size_t s = 0;
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = u + 1; v < n; ++v) fn(s++, u, v, std::int64_t{1});
  }
};

/// An explicit demand multigraph: its distinct chords, packed u << 32 | v
/// and sorted (so slot order is lexicographic chord order), each with its
/// multiplicity. A cover chord finds its slot by binary search; one with
/// no slot lies outside the demand. O(m) memory, whatever n is.
class ExplicitDemand {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  explicit ExplicitDemand(const graph::Graph& demand) {
    std::vector<std::uint64_t> packed;
    packed.reserve(demand.num_edges());
    for (const auto& e : demand.edges()) packed.push_back(pack(e.u, e.v));
    std::sort(packed.begin(), packed.end());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      if (i == 0 || packed[i] != packed[i - 1]) {
        chords_.push_back(packed[i]);
        mult_.push_back(0);
      }
      mult_.back() += 1;
    }
  }

  const std::vector<std::int64_t>& multiplicities() const { return mult_; }
  std::size_t slot(Vertex u, Vertex v) const {
    const std::uint64_t key = pack(u, v);
    const auto it = std::lower_bound(chords_.begin(), chords_.end(), key);
    if (it == chords_.end() || *it != key) return kNoSlot;
    return static_cast<std::size_t>(it - chords_.begin());
  }
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (std::size_t s = 0; s < chords_.size(); ++s)
      fn(s, static_cast<Vertex>(chords_[s] >> 32),
         static_cast<Vertex>(chords_[s]), mult_[s]);
  }

 private:
  static std::uint64_t pack(Vertex u, Vertex v) {
    return std::uint64_t{u} << 32 | v;
  }

  std::vector<std::uint64_t> chords_;
  std::vector<std::int64_t> mult_;
};

/// One pass over the cycles against a flat per-slot counter that starts
/// at each chord's demanded multiplicity and loses one per coverage.
/// drc_winding decides the DRC, and a cycle that winds once is
/// well-formed; any other cycle takes a per-vertex stamp pass (the index
/// of the last cycle that visited each vertex) that tells a malformed
/// cycle from a well-formed one violating the DRC. Nothing is allocated
/// per cycle. The report equals the definition's: the first structurally
/// invalid cycle ends the scan, DRC violations are counted, and otherwise
/// slots are read in lexicographic chord order, so the first shortfall is
/// the one named.
template <typename Demand>
ValidationReport validate_impl(const RingCover& cover, const Demand& demand) {
  ValidationReport rep;
  if (cover.n < 3) {
    rep.error = "ring size must be >= 3";
    return rep;
  }
  const std::uint32_t n = cover.n;

  std::vector<std::int64_t> need = demand.multiplicities();
  std::size_t outside = 0;  // coverages of chords with no demand slot
  std::vector<std::size_t> stamp;  // sized on the first unwound cycle
  // >= 3 vertices, all < n and distinct, stamping each with `mark`.
  const auto well_formed = [&](const Cycle& c, std::size_t mark) {
    if (c.size() < 3) return false;
    if (stamp.empty()) stamp.assign(n, 0);
    for (const Vertex v : c) {
      if (v >= n || stamp[v] == mark) return false;
      stamp[v] = mark;
    }
    return true;
  };
  for (std::size_t i = 0; i < cover.cycles.size(); ++i) {
    const Cycle& c = cover.cycles[i];
    const bool drc = drc_winding(n, c) != 0;
    if (!drc && !well_formed(c, i + 1)) {
      rep.error = "structurally invalid cycle " + to_string(c);
      return rep;
    }
    if (!drc) {
      rep.non_drc_cycles += 1;
      if (rep.error.empty())
        rep.error = "cycle " + to_string(c) + " violates the DRC";
      continue;
    }
    if (rep.non_drc_cycles > 0) continue;  // coverage is not reported
    for_each_chord(c, [&](Vertex u, Vertex v) {
      const std::size_t s = demand.slot(u, v);
      if (s < need.size())
        need[s] -= 1;
      else
        outside += 1;
    });
  }
  if (rep.non_drc_cycles > 0) return rep;

  demand.for_each_slot([&](std::size_t s, Vertex u, Vertex v,
                           std::int64_t want) {
    const std::int64_t left = need[s];
    if (left > 0) {
      rep.uncovered_chords += static_cast<std::size_t>(left);
      if (rep.error.empty())
        rep.error = "chord (" + std::to_string(u) + "," + std::to_string(v) +
                    ") covered " + std::to_string(want - left) + " < " +
                    std::to_string(want) + " times";
    } else {
      rep.duplicate_coverage += static_cast<std::size_t>(-left);
    }
  });
  // Coverage of chords outside the demand also counts as duplicate work.
  rep.duplicate_coverage += outside;

  rep.ok = rep.uncovered_chords == 0;
  if (rep.ok) rep.error.clear();
  return rep;
}

}  // namespace

ValidationReport validate_cover(const RingCover& cover) {
  return validate_impl(cover, CompleteDemand{cover.n});
}

ValidationReport validate_cover_against(const RingCover& cover,
                                        const graph::Graph& demand) {
  return validate_impl(cover, ExplicitDemand(demand));
}

std::string to_string(const RingCover& cover) {
  std::string s;
  for (const Cycle& c : cover.cycles) s += to_string(c);
  return s;
}

std::string summary(const RingCover& cover) {
  const auto rep = validate_cover(cover);
  std::string s = "n=" + std::to_string(cover.n) + ": " +
                  std::to_string(cover.size()) + " cycles (" +
                  std::to_string(count_c3(cover)) + " C3, " +
                  std::to_string(count_c4(cover)) + " C4), " +
                  (rep.ok ? "valid" : "INVALID: " + rep.error);
  return s;
}

}  // namespace ccov::covering
