#include "ccov/covering/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <thread>
#include <vector>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/chord_bitset.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/ring/ring.hpp"
#include "ccov/util/ints.hpp"
#include "ccov/util/thread_pool.hpp"

namespace ccov::covering {

namespace {

/// Shared node pool for the parallel search. Workers reserve chunks so the
/// hot path touches the atomic once every kNodeChunk nodes instead of once
/// per node, and return unused grants when their subtree completes, so the
/// total node spend across all workers never exceeds the configured budget
/// (the old per-worker budgets could overshoot by a factor of the root
/// fan-out).
struct SharedNodeBudget {
  explicit SharedNodeBudget(std::uint64_t total) : remaining(total) {}

  std::atomic<std::uint64_t> remaining;

  std::uint64_t take(std::uint64_t want) {
    std::uint64_t cur = remaining.load(std::memory_order_relaxed);
    while (cur != 0) {
      const std::uint64_t grant = cur < want ? cur : want;
      if (remaining.compare_exchange_weak(cur, cur - grant,
                                          std::memory_order_relaxed))
        return grant;
    }
    return 0;
  }

  void give_back(std::uint64_t unused) {
    if (unused) remaining.fetch_add(unused, std::memory_order_relaxed);
  }
};

constexpr std::uint64_t kNodeChunk = 4096;
constexpr std::uint64_t kCancelCheckMask = 1023;  // check every 1024 nodes
/// Deadline/cancel-token poll cadence: every 4096 nodes, amortizing the
/// clock read to nothing. The masked test itself runs on every node even
/// when both controls are unset, so arming them never changes which
/// nodes a non-interrupted search visits — the golden node counts stay
/// byte-identical.
constexpr std::uint64_t kInterruptCheckMask = 4095;
constexpr std::size_t kNoWinner = std::numeric_limits<std::size_t>::max();

struct Search {
  std::uint32_t n;
  ring::Ring r;
  SolverOptions opts;

  // Chord (a, b), a < b, indexed as a*n + b. covered[] counts coverage;
  // the bitset mirrors "count == 0" so the lexicographically first
  // uncovered chord is a countr_zero word scan instead of an O(n^2)
  // rescan, and freshness tests are single bit probes.
  std::vector<std::uint8_t> covered;
  ChordBitset uncovered;
  std::uint64_t remaining_load = 0;  // sum of minor distances of uncovered

  std::uint64_t nodes = 0;
  bool node_budget_hit = false;
  bool cancelled = false;     // a lower-index parallel root already won
  bool deadline_hit = false;  // opts.deadline expired mid-search
  bool cancel_hit = false;    // *opts.cancel fired mid-search
  std::vector<SmallCycle> chosen;
  std::vector<Cycle> best;
  bool found = false;

  // Parallel wiring; all null/unused in the serial search.
  SharedNodeBudget* shared_budget = nullptr;
  std::uint64_t grant = 0;  // nodes pre-reserved from shared_budget
  const std::atomic<std::size_t>* winner = nullptr;
  std::size_t root_index = 0;

  // Per-depth scratch. Candidates are generated into gen[] in
  // lexicographic order, then stable-bucketed by freshness into
  // ordered[]. prepare() sizes the arena for the whole search up front,
  // so the steady-state DFS performs no allocation and references into
  // the arena are never invalidated by deeper levels.
  struct DepthScratch {
    std::vector<SmallCycle> gen;
    std::vector<std::uint8_t> fresh;
    std::vector<SmallCycle> ordered;
  };
  std::vector<DepthScratch> arena;

  explicit Search(std::uint32_t nn, const SolverOptions& o)
      : n(nn),
        r(nn),
        opts(o),
        covered(static_cast<std::size_t>(nn) * nn, 0),
        uncovered(nn) {
    uncovered.set_all_chords();
    for (Vertex a = 0; a < n; ++a)
      for (Vertex b = a + 1; b < n; ++b) remaining_load += r.dist(a, b);
  }

  /// Largest possible candidate list: n-2 triangles plus quads whose two
  /// extra vertices share one of the two open arcs.
  std::size_t max_candidates() const {
    const std::size_t m = n - 2;
    return m + m * (m - 1) / 2;
  }

  /// Preallocate every per-depth scratch buffer and the chosen stack for
  /// a search of at most `budget` cycles. Each chosen cycle covers at
  /// least one new chord (every candidate contains the branching chord),
  /// so the DFS depth is also bounded by the chord count.
  void prepare(std::uint64_t budget) {
    const std::uint64_t chords =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    const std::size_t depth_cap =
        static_cast<std::size_t>(budget < chords ? budget : chords);
    chosen.reserve(depth_cap);
    arena.resize(depth_cap);
    const std::size_t cap = max_candidates();
    for (DepthScratch& s : arena) {
      if (s.gen.capacity() == 0) {
        s.gen.reserve(cap);
        s.fresh.reserve(cap);
        s.ordered.reserve(cap);
      }
    }
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

  /// Candidate circularly ordered cycles (sizes 3..4, capped by
  /// max_cycle_len) containing chord (a, b) as an edge, written into the
  /// scratch in lexicographically sorted vertex order. A circular cycle
  /// is determined by its vertex set; (a, b) is an edge iff one open arc
  /// between them holds no other chosen vertex, so the extra vertices
  /// all come from one side: the interior (a, b) or the exterior
  /// [0, a) ∪ (b, n). Each candidate is emitted exactly once — no
  /// dedup pass — and a < b always holds for the branching chord.
  void generate(Vertex a, Vertex b, DepthScratch& s) const {
    const bool quads = opts.max_cycle_len >= 4;
    s.gen.clear();
    // Sorted sequences leading with w < a: both extras below a, then the
    // triangle, then the second extra beyond b.
    for (Vertex w = 0; w < a; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < a; ++z) s.gen.push_back({w, z, a, b});
      s.gen.push_back({w, a, b});
      if (quads)
        for (Vertex z = b + 1; z < n; ++z) s.gen.push_back({w, a, b, z});
    }
    // Leading with a: extras strictly inside the (a, b) arc.
    for (Vertex w = a + 1; w < b; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < b; ++z) s.gen.push_back({a, w, z, b});
      s.gen.push_back({a, w, b});
    }
    // Leading with a, b: extras beyond b.
    for (Vertex w = b + 1; w < n; ++w) {
      s.gen.push_back({a, b, w});
      if (quads)
        for (Vertex z = w + 1; z < n; ++z) s.gen.push_back({a, b, w, z});
    }
  }

  /// Stable bucket sort by freshness, descending — the same ordering the
  /// former std::stable_sort over the lex-sorted list produced, pinned
  /// by the golden node-count tests. Freshness of a C3/C4 is in [0, 4].
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

  /// Count one branch node against the budget; false aborts the search.
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
    if (winner != nullptr && (nodes & kCancelCheckMask) == 0 &&
        winner->load(std::memory_order_relaxed) < root_index) {
      cancelled = true;
      return false;
    }
    if (shared_budget == nullptr) {
      if (nodes > opts.max_nodes) {
        node_budget_hit = true;
        return false;
      }
      return true;
    }
    if (grant == 0) grant = shared_budget->take(kNodeChunk);
    if (grant == 0) {
      node_budget_hit = true;
      return false;
    }
    --grant;
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
    // Capacity prune: each further cycle supplies exactly n units of arc
    // length, every uncovered chord costs at least its minor distance.
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
      if (node_budget_hit || cancelled || deadline_hit || cancel_hit)
        return false;
    }
    return false;
  }
};

}  // namespace

SolverResult solve_with_budget(std::uint32_t n, std::uint64_t budget,
                               const SolverOptions& opts) {
  Search s(n, opts);
  s.prepare(budget);
  SolverResult res;
  const bool ok = s.dfs(budget);
  res.found = ok;
  res.nodes = s.nodes;
  res.timed_out = s.deadline_hit;
  res.cancelled = s.cancel_hit;
  res.exhausted = !s.node_budget_hit && !s.deadline_hit && !s.cancel_hit;
  if (ok) res.cover = RingCover{n, std::move(s.best)};
  return res;
}

SolverResult solve_with_budget_parallel(std::uint32_t n, std::uint64_t budget,
                                        const SolverOptions& opts,
                                        std::size_t threads) {
  // Root candidates: every cycle through the lexicographically first chord
  // (0, 1). Each becomes an independent subtree; the dihedral symmetry of
  // the empty state is broken the same way the serial search breaks it.
  // The serial root node is mirrored exactly (one node consumed, then the
  // zero-budget and capacity-prune exits) so node counts and witnesses
  // agree with solve_with_budget whenever the node budget is not hit.
  SolverResult res;
  Search root(n, opts);
  res.nodes = 1;  // the shared root node
  if (opts.max_nodes == 0) return res;  // budget hit at the root
  Vertex a = 0, b = 0;
  if (!root.uncovered.first(a, b)) {  // unreachable for n >= 3
    res.found = true;
    res.exhausted = true;
    res.cover = RingCover{n, {}};
    return res;
  }
  if (budget == 0) {
    res.exhausted = true;
    return res;
  }
  if (opts.use_capacity_prune &&
      util::ceil_div<std::uint64_t>(root.remaining_load, n) > budget) {
    res.exhausted = true;
    return res;
  }

  Search::DepthScratch root_scratch;
  root.generate(a, b, root_scratch);
  const std::size_t fanout = root.order_candidates(root_scratch);
  const std::vector<SmallCycle> roots = root_scratch.ordered;

  // Workers share the remaining node budget and clone the initialized
  // root state instead of recomputing it. The winner is the *lowest*
  // successful root index — exactly the subtree the serial search would
  // have succeeded in first — so the returned cover is byte-identical to
  // the serial one; workers that can no longer win cancel themselves.
  SharedNodeBudget node_pool(opts.max_nodes - 1);
  std::atomic<std::size_t> winner{kNoWinner};
  struct WorkerResult {
    std::uint64_t nodes = 0;
    bool found = false;
    bool budget_hit = false;
    bool cancelled = false;
    bool timed_out = false;
    bool cancel_hit = false;
    std::vector<Cycle> best;
  };
  std::vector<WorkerResult> results(fanout);

  // More workers than hardware threads buy nothing (the result does not
  // depend on the count), and every request builds its own pool.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  util::ThreadPool pool(threads == 0 ? hw : std::min(threads, hw));
  util::parallel_for(pool, 0, fanout, [&](std::size_t i) {
    if (winner.load(std::memory_order_relaxed) < i) {
      results[i].cancelled = true;
      return;
    }
    Search s(root);  // clone-from-root: no per-root O(n^2) re-init
    s.prepare(budget);
    s.shared_budget = &node_pool;
    s.winner = &winner;
    s.root_index = i;
    s.apply(roots[i], +1);
    s.chosen.push_back(roots[i]);
    const bool ok = s.dfs(budget - 1);
    node_pool.give_back(s.grant);
    WorkerResult& out = results[i];
    out.nodes = s.nodes;
    out.budget_hit = s.node_budget_hit;
    out.cancelled = s.cancelled;
    out.timed_out = s.deadline_hit;
    out.cancel_hit = s.cancel_hit;
    if (ok) {
      out.found = true;
      out.best = std::move(s.best);
      std::size_t cur = winner.load(std::memory_order_relaxed);
      while (i < cur && !winner.compare_exchange_weak(cur, i)) {
      }
    }
  });

  const std::size_t w = winner.load();
  if (w != kNoWinner) {
    // Subtrees before the winner ran to completion (a worker only cancels
    // when a *lower* index already won), so this sum reproduces the
    // serial node count — unless one of them was starved by the shared
    // budget, in which case the serial search might have spent the whole
    // budget there and committed to a different result. exhausted=false
    // flags that budget-truncated (possibly non-serial) witness.
    bool clean = true;
    for (std::size_t i = 0; i <= w; ++i) {
      res.nodes += results[i].nodes;
      // A timed-out or token-cancelled sibling subtree means the serial
      // search might have committed elsewhere — same truncation flag as
      // a budget-starved one. A found cover is still reported as found
      // (never timed_out): a witness in hand beats a timeout.
      if (results[i].budget_hit || results[i].timed_out ||
          results[i].cancel_hit)
        clean = false;
    }
    res.found = true;
    res.exhausted = clean;
    res.cover = RingCover{n, std::move(results[w].best)};
    return res;
  }
  bool all_exhausted = true;
  for (const WorkerResult& r : results) {
    res.nodes += r.nodes;
    if (r.budget_hit) all_exhausted = false;
    if (r.timed_out) res.timed_out = true;
    if (r.cancel_hit) res.cancelled = true;
  }
  res.exhausted = all_exhausted && !res.timed_out && !res.cancelled;
  return res;
}

std::optional<std::pair<std::uint64_t, RingCover>> solve_minimum(
    std::uint32_t n, const SolverOptions& opts, SolverResult* last) {
  // Start from the construction (an upper bound) and push downward.
  RingCover ub = build_optimal_cover(n);
  std::uint64_t best = ub.size();
  RingCover witness = ub;
  std::uint64_t total_nodes = 0;
  while (best > 1) {
    SolverResult res = solve_with_budget(n, best - 1, opts);
    total_nodes += res.nodes;
    if (last != nullptr) {
      *last = res;
      last->nodes = total_nodes;
    }
    if (res.found) {
      best = res.cover.size();
      witness = res.cover;
      continue;
    }
    if (!res.exhausted) return std::nullopt;  // inconclusive
    break;
  }
  return std::make_pair(best, witness);
}

namespace detail {

std::vector<Cycle> candidate_cycles(std::uint32_t n, Vertex a, Vertex b,
                                    const SolverOptions& opts) {
  Search s(n, opts);
  Search::DepthScratch scratch;
  s.generate(a, b, scratch);
  const std::size_t k = s.order_candidates(scratch);
  std::vector<Cycle> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(scratch.ordered[i].to_cycle());
  return out;
}

}  // namespace detail

}  // namespace ccov::covering
