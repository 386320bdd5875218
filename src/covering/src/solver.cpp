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
static_assert((kInterruptCheckMask & kCancelCheckMask) == kCancelCheckMask,
              "every interrupt poll must also be a winner poll");
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
  RingCover best;  // the witness, written from `chosen` on success
  bool found = false;

  // Parallel wiring; all null/unused in the serial search.
  SharedNodeBudget* shared_budget = nullptr;
  std::uint64_t grant = 0;  // nodes pre-reserved from shared_budget
  const std::atomic<std::size_t>* winner = nullptr;
  std::size_t root_index = 0;

  // Per-depth candidate buckets, one per freshness. The branching chord
  // is uncovered and lies on every candidate, so freshness is in [1, 4]
  // and bucket f - 1 holds freshness f, in lexicographic generation
  // order. A bucket keeps only the candidates whose child can branch or
  // finish; the dead leaves (see leaf_threshold) between them stay counts.
  // prepare() sizes the outer arena for the whole search, so references
  // into it survive deeper levels; each bucket grows on demand.
  struct Kept {
    SmallCycle c;
    std::uint32_t dead_before;  // dead siblings just before c in its bucket
  };
  struct Bucket {
    std::vector<Kept> kept;
    std::uint32_t dead_after = 0;  // dead siblings after the last kept one
  };
  struct DepthScratch {
    Bucket by_fresh[4];
  };
  std::vector<DepthScratch> arena;

  // A candidate's score packs its fresh chords' summed ring distance L
  // above a 3-bit freshness count: (L << kFreshBits) | freshness. Sums of
  // up to four chord scores never carry out of the count.
  static constexpr std::uint32_t kFreshBits = 3;
  static constexpr std::uint32_t kFreshMask = (1u << kFreshBits) - 1;
  // Score of chord (v, w) for each end v of the branching chord, by w;
  // refilled per node.
  std::vector<std::uint32_t> end_a, end_b;

  explicit Search(std::uint32_t nn, const SolverOptions& o)
      : n(nn),
        r(nn),
        opts(o),
        covered(static_cast<std::size_t>(nn) * nn, 0),
        uncovered(nn),
        end_a(nn),
        end_b(nn) {
    uncovered.set_all_chords();
    for (Vertex a = 0; a < n; ++a)
      for (Vertex b = a + 1; b < n; ++b) remaining_load += r.dist(a, b);
  }

  /// Size the chosen stack and the per-depth arena for a search of at
  /// most `budget` cycles. Each chosen cycle covers at least one new chord
  /// (every candidate contains the branching chord), so the DFS depth is
  /// also bounded by the chord count.
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

  /// Score of chord (u, v), u < v: zero when covered.
  std::uint32_t chord_score(Vertex u, Vertex v) const {
    return uncovered.test(u, v) ? (r.dist(u, v) << kFreshBits) | 1u : 0u;
  }

  /// Every candidate circularly ordered cycle (sizes 3..4, capped by
  /// max_cycle_len) containing chord (a, b), a < b, as an edge, passed
  /// to emit(cycle, score) in lexicographically sorted vertex order. A
  /// circular cycle is determined by its vertex set; (a, b) is an edge
  /// iff one open arc between them holds no other chosen vertex, so the
  /// extra vertices all come from one side: the interior (a, b) or the
  /// exterior [0, a) ∪ (b, n). Each candidate is emitted exactly once.
  /// Its chords are (a, b), one from a, one from b and, for a quad, the
  /// chord (w, z) between the two extras, so a triangle scores from two
  /// array reads and a quad adds one bit probe.
  template <typename Emit>
  void for_each_candidate(Vertex a, Vertex b, Emit&& emit) {
    for (Vertex w = 0; w < n; ++w) {
      end_a[w] = w == a ? 0 : chord_score(std::min(a, w), std::max(a, w));
      end_b[w] = w == b ? 0 : chord_score(std::min(b, w), std::max(b, w));
    }
    const std::uint32_t ab = chord_score(a, b);
    const bool quads = opts.max_cycle_len >= 4;
    // A quad whose a-neighbour is x and b-neighbour is y, extras w < z.
    const auto quad = [&](Vertex x, Vertex y, Vertex w, Vertex z) {
      return ab + end_a[x] + end_b[y] + chord_score(w, z);
    };
    // Sorted sequences leading with w < a: both extras below a, then the
    // triangle, then the second extra beyond b.
    for (Vertex w = 0; w < a; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < a; ++z) emit({w, z, a, b}, quad(z, w, w, z));
      emit({w, a, b}, ab + end_a[w] + end_b[w]);
      if (quads)
        for (Vertex z = b + 1; z < n; ++z) emit({w, a, b, z}, quad(w, z, w, z));
    }
    // Leading with a: extras strictly inside the (a, b) arc.
    for (Vertex w = a + 1; w < b; ++w) {
      if (quads)
        for (Vertex z = w + 1; z < b; ++z) emit({a, w, z, b}, quad(w, z, w, z));
      emit({a, w, b}, ab + end_a[w] + end_b[w]);
    }
    // Leading with a, b: extras beyond b.
    for (Vertex w = b + 1; w < n; ++w) {
      emit({a, b, w}, ab + end_a[w] + end_b[w]);
      if (quads)
        for (Vertex z = w + 1; z < n; ++z) emit({a, b, w, z}, quad(z, w, w, z));
    }
  }

  /// Bucket the candidates through (a, b) by freshness, keeping those
  /// whose fresh distance is at least `need` and counting the rest.
  void fill(Vertex a, Vertex b, std::uint64_t need, DepthScratch& s) {
    std::uint32_t dead[4] = {0, 0, 0, 0};
    for (Bucket& bucket : s.by_fresh) bucket.kept.clear();
    for_each_candidate(a, b, [&](const SmallCycle& c, std::uint32_t score) {
      const std::uint32_t f = (score & kFreshMask) - 1;
      if ((score >> kFreshBits) < need) {
        ++dead[f];
        return;
      }
      s.by_fresh[f].kept.push_back({c, dead[f]});
      dead[f] = 0;
    });
    for (int f = 0; f < 4; ++f) s.by_fresh[f].dead_after = dead[f];
  }

  /// The full branching list for chord (a, b) in search order: freshness
  /// descending, stable on the lexicographic generation order.
  std::vector<SmallCycle> ordered_candidates(Vertex a, Vertex b) {
    DepthScratch s;
    fill(a, b, 0, s);
    std::vector<SmallCycle> out;
    for (int f = 3; f >= 0; --f)
      for (const Kept& k : s.by_fresh[f].kept) out.push_back(k.c);
    return out;
  }

  /// Least fresh distance L a child of this node (`budget` cycles left)
  /// needs not to be a dead leaf. The child has budget - 1 cycles left
  /// and remaining_load - L load: it finds a cover when L ==
  /// remaining_load, and otherwise fails at once when budget == 1 or when
  /// the capacity prune rejects it, ceil((remaining_load - L) / n) >
  /// budget - 1, that is L < remaining_load - n * (budget - 1).
  std::uint64_t leaf_threshold(std::uint64_t budget) const {
    if (budget == 1) return remaining_load;
    const std::uint64_t left = budget - 1;
    if (!opts.use_capacity_prune ||
        left >= util::ceil_div<std::uint64_t>(remaining_load, n))
      return 0;
    return remaining_load - n * left;
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
    best.n = n;
    best.clear();
    best.reserve(chosen.size(), SmallCycle::kCapacity * chosen.size());
    for (const SmallCycle& c : chosen) best.add(c.view());
    found = true;
  }

  /// Count `k` dead leaves, each a node exactly as if it were applied,
  /// visited and undone; false aborts the search. When none of the k
  /// nodes lands on a poll or at the edge of the budget, they are one add.
  bool consume_dead(std::uint32_t k) {
    const std::uint64_t poll_mask =
        winner != nullptr ? kCancelCheckMask : kInterruptCheckMask;
    const bool in_budget = shared_budget == nullptr
                               ? nodes + k <= opts.max_nodes
                               : k <= grant;
    if ((nodes & poll_mask) + k <= poll_mask && in_budget) {
      nodes += k;
      if (shared_budget != nullptr) grant -= k;
      return true;
    }
    for (; k != 0; --k)
      if (!consume_node()) return false;
    return true;
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
    DepthScratch& s = arena[chosen.size()];
    fill(a, b, leaf_threshold(budget), s);
    for (int f = 3; f >= 0; --f) {
      const Bucket& bucket = s.by_fresh[f];
      for (const Kept& k : bucket.kept) {
        if (!consume_dead(k.dead_before)) return false;
        apply(k.c, +1);
        chosen.push_back(k.c);
        if (dfs(budget - 1)) return true;
        chosen.pop_back();
        apply(k.c, -1);
        if (node_budget_hit || cancelled || deadline_hit || cancel_hit)
          return false;
      }
      if (!consume_dead(bucket.dead_after)) return false;
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
  if (ok) res.cover = std::move(s.best);
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
    res.cover = RingCover(n);
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

  const std::vector<SmallCycle> roots = root.ordered_candidates(a, b);
  const std::size_t fanout = roots.size();

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
    RingCover best;
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
    res.cover = std::move(results[w].best);
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
  std::vector<Cycle> out;
  for (const SmallCycle& c : s.ordered_candidates(a, b))
    out.push_back(c.to_cycle());
  return out;
}

}  // namespace detail

}  // namespace ccov::covering
