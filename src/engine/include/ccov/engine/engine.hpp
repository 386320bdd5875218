#pragma once
/// \file engine.hpp
/// The unified solver engine: one entry point through which every cover
/// request flows. run() resolves the algorithm by name, consults the
/// sharded CoverCache, executes, validates, and times the request. The
/// engine is thread-safe; BatchRunner fans requests across it using the
/// engine's shared thread pool (created lazily, reused by every batch —
/// a serve loop never pays per-call pool construction).
///
/// One key per request: canonical_request_key is the one per-request
/// cost that grows with the demand, so every path computes it at most
/// once. A caller that already holds the key — the serve loop's
/// run_cached() probe, BatchRunner's grouping pass — hands it to
/// run(req, ck), which looks up and inserts under it; run(req) keys the
/// request itself (the CLI path).

#include <cstddef>
#include <memory>
#include <mutex>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/metrics.hpp"
#include "ccov/engine/registry.hpp"
#include "ccov/engine/request.hpp"
#include "ccov/util/thread_pool.hpp"

namespace ccov::engine {

struct EngineOptions {
  /// Serve repeated (D_n-equivalent) requests from the cache.
  bool use_cache = true;
  /// Total LRU capacity of the cover cache, across all shards.
  std::size_t cache_capacity = 256;
  /// Lock-striped shards of the cover cache (clamped to the capacity).
  std::size_t cache_shards = CoverCache::kDefaultShards;
  /// Threads in the shared pool; 0 selects hardware concurrency. The
  /// pool is created on first use (Engine::pool), so engines that never
  /// batch never spawn a thread.
  std::size_t pool_threads = 0;
  /// Graceful degradation (`ccov serve --fallback greedy`): answer a
  /// deadline-expired exact solve with the greedy cover, flagged
  /// degraded:true — a valid (just non-minimal) protection cover beats
  /// a timeout error. Never applied to shutdown cancellation, and
  /// degraded answers are never cached.
  bool fallback_greedy = false;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {},
                  AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Execute one request. Never throws: algorithm failures, unknown
  /// names and invalid parameters come back as ok = false responses.
  /// Computes the canonical key itself when the request is cacheable.
  CoverResponse run(const CoverRequest& req);

  /// run() with the key already built: `ck` must be
  /// canonical_request_key(req). It is used for the lookup and the
  /// insert, and ignored when the request is not cacheable. Responses
  /// are byte-identical to run(req).
  CoverResponse run(const CoverRequest& req, const CanonicalKey& ck);

  /// The engine's shared thread pool, created on first call and reused
  /// for the engine's lifetime. Concurrent batches isolate themselves
  /// with util::TaskGroup tokens.
  util::ThreadPool& pool();

  /// Cache-hit fast path for serving loops: when the request is
  /// cacheable, maps onto the canonical frame by the identity (so no
  /// cover remap is needed) and is cached, invokes `fn` with the stored
  /// entry and its stamp — no deep copy of the cover — and returns true.
  /// `ck` must be canonical_request_key(req). The entry differs from what
  /// run() would have returned only in the fields a hit rewrites:
  /// cache_hit (stored false, reported true), nodes and elapsed_ms
  /// (stored search cost, reported 0); callers must apply those
  /// overrides themselves. Every other case returns false with all
  /// counters untouched — falling back to run() then counts the miss
  /// exactly once and yields identical bytes; pass the same `ck` to
  /// run(req, ck) so the request is keyed once.
  template <typename Fn>
  bool run_cached(const CoverRequest& req, const CanonicalKey& ck, Fn&& fn) {
    if (!cacheable(req)) return false;
    if (ck.to_canonical.reflect || ck.to_canonical.shift % req.n != 0)
      return false;
    return cache_.visit(ck, std::forward<Fn>(fn));
  }

  const AlgorithmRegistry& registry() const { return registry_; }
  CoverCache& cache() { return cache_; }
  const CoverCache& cache() const { return cache_; }

  /// The engine's metrics registry: cache hit/miss/eviction and
  /// size/capacity series are wired as scrape-time callbacks in the
  /// constructor; the serve sessions and the solver path update owned
  /// counters. Rendered by `GET /metrics` and the `metrics` serve verb.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// True iff run() consults the cache for `req`: caching is on, the
  /// algorithm is registered and cacheable, and cacheable_demand(req).
  bool cacheable(const CoverRequest& req) const;

  /// Both run() overloads: `ck` is the caller's key, or null to compute
  /// it here when the request turns out to be cacheable.
  CoverResponse run_keyed(const CoverRequest& req, const CanonicalKey* ck);

  EngineOptions opts_;
  AlgorithmRegistry& registry_;
  CoverCache cache_;
  MetricsRegistry metrics_;
  Counter* solver_nodes_ = nullptr;  ///< cumulative search nodes
  Counter* timed_out_ = nullptr;     ///< requests past their deadline
  Counter* degraded_ = nullptr;      ///< greedy-fallback answers served
  Counter* cancellations_ = nullptr; ///< solves aborted by the cancel token
  std::once_flag pool_once_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace ccov::engine
