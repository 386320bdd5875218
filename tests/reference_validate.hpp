#pragma once
/// \file reference_validate.hpp
/// Cover validation by definition, the std::map/std::set formulation
/// the library used before its flat chord-count kernel: the demand
/// becomes an ordered map chord -> multiplicity, coverage a second map,
/// each cycle is checked for structure with a std::set and for the DRC
/// by summing forward gaps of the cycle and of its reversed copy.
/// ccov::covering::validate_cover and validate_cover_against must match
/// it on every ValidationReport field, `error` included; the
/// differential test and the fuzz_validate_cover harness compare
/// against it. Also keeps the std::set greedy_triple_cover that
/// baselines::greedy_triple_cover must reproduce cycle for cycle.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccov/covering/cover.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::covering::reference {

inline bool is_valid_cycle(const Cycle& c, std::uint32_t n) {
  if (c.size() < 3) return false;
  std::set<Vertex> seen;
  for (Vertex v : c) {
    if (v >= n) return false;
    if (!seen.insert(v).second) return false;
  }
  return true;
}

/// Sum of forward (clockwise) gaps along the cycle; the cycle is clockwise
/// circularly ordered iff this equals n (the walk winds exactly once).
inline std::uint64_t forward_gap_sum(std::uint32_t n, const Cycle& c) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Vertex u = c[i];
    const Vertex v = c[(i + 1) % c.size()];
    if (u == v) return 0;  // invalid cycle; reject
    sum += v >= u ? v - u : n - (u - v);
  }
  return sum;
}

inline bool satisfies_drc(std::uint32_t n, const Cycle& c) {
  if (!is_valid_cycle(c, n)) return false;
  if (forward_gap_sum(n, c) == n) return true;
  Cycle rev(c.rbegin(), c.rend());
  return forward_gap_sum(n, rev) == n;
}

inline ValidationReport validate_impl(
    const RingCover& cover,
    const std::map<std::pair<Vertex, Vertex>, std::uint32_t>& demand) {
  ValidationReport rep;
  if (cover.n < 3) {
    rep.error = "ring size must be >= 3";
    return rep;
  }

  std::map<std::pair<Vertex, Vertex>, std::uint32_t> covered;
  for (const Cycle& c : cover.cycles) {
    if (!is_valid_cycle(c, cover.n)) {
      rep.error = "structurally invalid cycle " + to_string(c);
      return rep;
    }
    if (!satisfies_drc(cover.n, c)) {
      rep.non_drc_cycles += 1;
      if (rep.error.empty())
        rep.error = "cycle " + to_string(c) + " violates the DRC";
      continue;
    }
    for_each_chord(c, [&](Vertex u, Vertex v) { covered[{u, v}] += 1; });
  }
  if (rep.non_drc_cycles > 0) return rep;

  for (const auto& [chord, mult] : demand) {
    const auto it = covered.find(chord);
    const std::uint32_t have = it == covered.end() ? 0 : it->second;
    if (have < mult) {
      rep.uncovered_chords += mult - have;
      if (rep.error.empty())
        rep.error = "chord (" + std::to_string(chord.first) + "," +
                    std::to_string(chord.second) + ") covered " +
                    std::to_string(have) + " < " + std::to_string(mult) +
                    " times";
    } else {
      rep.duplicate_coverage += have - mult;
    }
  }
  // Coverage of chords outside the demand also counts as duplicate work.
  for (const auto& [chord, cnt] : covered)
    if (demand.find(chord) == demand.end()) rep.duplicate_coverage += cnt;

  rep.ok = rep.uncovered_chords == 0;
  if (rep.ok) rep.error.clear();
  return rep;
}

inline ValidationReport validate_cover(const RingCover& cover) {
  std::map<std::pair<Vertex, Vertex>, std::uint32_t> demand;
  for (Vertex u = 0; u < cover.n; ++u)
    for (Vertex v = u + 1; v < cover.n; ++v) demand[{u, v}] = 1;
  return validate_impl(cover, demand);
}

inline ValidationReport validate_cover_against(const RingCover& cover,
                                               const graph::Graph& demand) {
  std::map<std::pair<Vertex, Vertex>, std::uint32_t> d;
  for (const auto& e : demand.edges()) d[{e.u, e.v}] += 1;
  return validate_impl(cover, d);
}

/// Field-by-field equality, `error` included.
inline bool same_report(const ValidationReport& a, const ValidationReport& b) {
  return a.ok == b.ok && a.error == b.error &&
         a.uncovered_chords == b.uncovered_chords &&
         a.duplicate_coverage == b.duplicate_coverage &&
         a.non_drc_cycles == b.non_drc_cycles;
}

inline std::vector<Cycle> greedy_triple_cover(std::uint32_t n) {
  std::set<std::pair<Vertex, Vertex>> uncovered;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b) uncovered.insert({a, b});

  std::vector<Cycle> out;
  while (!uncovered.empty()) {
    const auto [a, b] = *uncovered.begin();
    // Pick the third vertex completing the most uncovered pairs.
    Vertex best = (a + 1) % n;
    int best_fresh = -1;
    for (Vertex w = 0; w < n; ++w) {
      if (w == a || w == b) continue;
      int fresh = 1;  // (a, b) itself
      if (uncovered.count({std::min(a, w), std::max(a, w)})) ++fresh;
      if (uncovered.count({std::min(b, w), std::max(b, w)})) ++fresh;
      if (fresh > best_fresh) {
        best_fresh = fresh;
        best = w;
      }
    }
    Cycle tri{a, b, best};
    for (std::size_t i = 0; i < 3; ++i) {
      Vertex u = tri[i], v = tri[(i + 1) % 3];
      if (u > v) std::swap(u, v);
      uncovered.erase({u, v});
    }
    out.push_back(std::move(tri));
  }
  return out;
}

}  // namespace ccov::covering::reference
