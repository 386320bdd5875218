#pragma once
/// \file reference_solver.hpp
/// The exact search as the library ran it before leaves were decided in
/// the parent: every child is generated into a lexicographic list,
/// scored by bit probes, stable-bucketed by freshness into a second
/// list, then applied, visited (one node, a first-chord scan, the
/// budget and capacity tests) and undone, also when the capacity prune
/// rejects it at once. ccov::covering::solve_with_budget must reproduce
/// its node count, found/exhausted/timed_out flags and witness for
/// every input; the SolverOracle tests and the fuzz_solver harness
/// compare against it.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/cover.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/ring/ring.hpp"
#include "ccov/util/ints.hpp"

namespace ccov::covering::reference {

namespace solver_detail {

inline constexpr std::uint64_t kInterruptCheckMask = 4095;

struct Search {
  std::uint32_t n;
  ring::Ring r;
  SolverOptions opts;

  std::vector<std::uint8_t> covered;
  ChordBitset uncovered;
  std::uint64_t remaining_load = 0;

  std::uint64_t nodes = 0;
  bool node_budget_hit = false;
  bool deadline_hit = false;
  bool cancel_hit = false;
  std::vector<SmallCycle> chosen;
  std::vector<Cycle> best;
  bool found = false;

  struct DepthScratch {
    std::vector<SmallCycle> gen;
    std::vector<std::uint8_t> fresh;
    std::vector<SmallCycle> ordered;
  };
  std::vector<DepthScratch> arena;

  Search(std::uint32_t nn, const SolverOptions& o)
      : n(nn),
        r(nn),
        opts(o),
        covered(static_cast<std::size_t>(nn) * nn, 0),
        uncovered(nn) {
    uncovered.set_all_chords();
    for (Vertex a = 0; a < n; ++a)
      for (Vertex b = a + 1; b < n; ++b) remaining_load += r.dist(a, b);
  }

  void prepare(std::uint64_t budget) {
    const std::uint64_t chords =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    const std::size_t depth_cap =
        static_cast<std::size_t>(budget < chords ? budget : chords);
    chosen.reserve(depth_cap);
    arena.resize(depth_cap);
  }

  void apply(const SmallCycle& c, int delta) {
    for_each_chord(c, [&](Vertex a, Vertex b) {
      std::uint8_t& cnt = covered[uncovered.index(a, b)];
      if (delta > 0) {
        if (cnt == 0) {
          remaining_load -= r.dist(a, b);
          uncovered.clear(a, b);
        }
        ++cnt;
      } else {
        --cnt;
        if (cnt == 0) {
          remaining_load += r.dist(a, b);
          uncovered.set(a, b);
        }
      }
    });
  }

  int fresh(const SmallCycle& c) const {
    int f = 0;
    for_each_chord(c, [&](Vertex a, Vertex b) { f += uncovered.test(a, b); });
    return f;
  }

  void generate(Vertex a, Vertex b, DepthScratch& s) const {
    const bool quads = opts.max_cycle_len >= 4;
    s.gen.clear();
    for (Vertex w = 0; w < a; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < a; ++z) s.gen.push_back({w, z, a, b});
      s.gen.push_back({w, a, b});
      if (quads)
        for (Vertex z = b + 1; z < n; ++z) s.gen.push_back({w, a, b, z});
    }
    for (Vertex w = a + 1; w < b; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < b; ++z) s.gen.push_back({a, w, z, b});
      s.gen.push_back({a, w, b});
    }
    for (Vertex w = b + 1; w < n; ++w) {
      s.gen.push_back({a, b, w});
      if (quads)
        for (Vertex z = w + 1; z < n; ++z) s.gen.push_back({a, b, w, z});
    }
  }

  std::size_t order_candidates(DepthScratch& s) const {
    const std::size_t k = s.gen.size();
    s.fresh.resize(k);
    s.ordered.resize(k);
    std::size_t cnt[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < k; ++i) {
      const int f = fresh(s.gen[i]);
      s.fresh[i] = static_cast<std::uint8_t>(f);
      ++cnt[f];
    }
    std::size_t off[5];
    std::size_t acc = 0;
    for (int f = 4; f >= 0; --f) {
      off[f] = acc;
      acc += cnt[f];
    }
    for (std::size_t i = 0; i < k; ++i) s.ordered[off[s.fresh[i]]++] = s.gen[i];
    return k;
  }

  bool consume_node() {
    ++nodes;
    if ((nodes & kInterruptCheckMask) == 0) {
      if (opts.cancel != nullptr && opts.cancel->cancelled()) {
        cancel_hit = true;
        return false;
      }
      if (opts.deadline.expired()) {
        deadline_hit = true;
        return false;
      }
    }
    if (nodes > opts.max_nodes) {
      node_budget_hit = true;
      return false;
    }
    return true;
  }

  void record_witness() {
    best.clear();
    best.reserve(chosen.size());
    for (const SmallCycle& c : chosen) best.push_back(c.to_cycle());
    found = true;
  }

  bool dfs(std::uint64_t budget) {
    if (!consume_node()) return false;
    Vertex a = 0, b = 0;
    if (!uncovered.first(a, b)) {
      record_witness();
      return true;
    }
    if (budget == 0) return false;
    if (opts.use_capacity_prune &&
        util::ceil_div<std::uint64_t>(remaining_load, n) > budget)
      return false;
    const std::size_t depth = chosen.size();
    generate(a, b, arena[depth]);
    const std::size_t k = order_candidates(arena[depth]);
    for (std::size_t i = 0; i < k; ++i) {
      const SmallCycle c = arena[depth].ordered[i];
      apply(c, +1);
      chosen.push_back(c);
      if (dfs(budget - 1)) return true;
      chosen.pop_back();
      apply(c, -1);
      if (node_budget_hit || deadline_hit || cancel_hit) return false;
    }
    return false;
  }
};

}  // namespace solver_detail

/// Serial solve_with_budget on the reference search.
inline SolverResult solve_with_budget(std::uint32_t n, std::uint64_t budget,
                                      const SolverOptions& opts = {}) {
  solver_detail::Search s(n, opts);
  s.prepare(budget);
  SolverResult res;
  const bool ok = s.dfs(budget);
  res.found = ok;
  res.nodes = s.nodes;
  res.timed_out = s.deadline_hit;
  res.cancelled = s.cancel_hit;
  res.exhausted = !s.node_budget_hit && !s.deadline_hit && !s.cancel_hit;
  if (ok) {
    res.cover = RingCover(n);
    for (const Cycle& c : s.best) res.cover.add(c);
  }
  return res;
}

}  // namespace ccov::covering::reference
