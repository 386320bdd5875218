#include "ccov/engine/engine.hpp"

#include <exception>
#include <utility>

#include "ccov/covering/cover.hpp"
#include "ccov/util/timer.hpp"

namespace ccov::engine {

Engine::Engine(EngineOptions opts)
    : opts_(opts), cache_(opts.cache_capacity, opts.cache_shards) {
  // Cache series read the cache's own atomics at scrape time — one
  // source of truth, nothing counted twice. The cache outlives the
  // registry's callers because both are members of this engine.
  metrics_.counter_fn("ccov_cache_hits_total",
                      "CoverCache lookups served from the cache",
                      [this] { return cache_.stats().hits; });
  metrics_.counter_fn("ccov_cache_misses_total",
                      "CoverCache lookups that required a computation",
                      [this] { return cache_.stats().misses; });
  metrics_.counter_fn("ccov_cache_evictions_total",
                      "CoverCache entries evicted by the per-shard LRU",
                      [this] { return cache_.stats().evictions; });
  metrics_.gauge_fn("ccov_cache_entries", "CoverCache entries currently stored",
                    [this] { return static_cast<std::int64_t>(cache_.size()); });
  metrics_.gauge_fn("ccov_cache_capacity",
                    "CoverCache total capacity across shards", [this] {
                      return static_cast<std::int64_t>(cache_.capacity());
                    });
  // Node throughput: cumulative branch nodes searched by every request
  // that ran an algorithm (cache hits search nothing). rate() of this
  // series is the engine's solve-node throughput.
  solver_nodes_ = &metrics_.counter(
      "ccov_solver_nodes_total",
      "Cumulative branch-and-bound nodes searched across all requests");
  // Robustness series. Shed is owned by the serve sessions (a shed
  // request never reaches Engine::run) but registered here so every
  // scrape exposes the full schema at zero.
  timed_out_ = &metrics_.counter(
      "ccov_requests_timed_out_total",
      "Requests whose deadline expired before the search settled");
  degraded_ = &metrics_.counter(
      "ccov_requests_degraded_total",
      "Timed-out exact solves answered with the greedy fallback cover");
  cancellations_ = &metrics_.counter(
      "ccov_solver_cancellations_total",
      "In-flight solves aborted by the server's cancel token (shutdown)");
  metrics_.counter("ccov_requests_shed_total",
                   "Requests answered shed:true because their deadline "
                   "expired while queued");
  // Pre-register the serve-session series so a scrape before the first
  // connection still exposes the full schema at zero.
  metrics_.counter("ccov_serve_sessions_total",
                   "Serve sessions started (stdio, TCP and HTTP batches)");
  metrics_.gauge("ccov_serve_sessions_active",
                 "Serve sessions currently running");
  metrics_.counter("ccov_serve_requests_total",
                   "Compute requests accepted by serve sessions");
  metrics_.counter("ccov_serve_verbs_total",
                   "Control verbs executed by serve sessions");
  metrics_.counter("ccov_serve_errors_total",
                   "In-band protocol errors answered by serve sessions");
  metrics_.gauge("ccov_serve_pipeline_depth",
                 "Flush jobs currently queued or running across sessions");
}

util::ThreadPool& Engine::pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<util::ThreadPool>();
  });
  return *pool_;
}

bool Engine::cacheable(const CoverRequest& req) const {
  return cacheable_demand(req) && registry().find(req.algorithm);
}

CoverResponse Engine::run(const CoverRequest& req) {
  return run_keyed(req, nullptr);
}

CoverResponse Engine::run(const CoverRequest& req, const CanonicalKey& ck) {
  return run_keyed(req, &ck);
}

CoverResponse Engine::run_keyed(const CoverRequest& req,
                                const CanonicalKey* ck) {
  CoverResponse resp;
  resp.algorithm = req.algorithm;
  resp.n = req.n;

  const Algorithm* algo = registry().find(req.algorithm);
  if (!algo) {
    resp.error = "unknown algorithm '" + req.algorithm + "'";
    return resp;
  }
  if (req.n < 3) {
    resp.error = "n must be >= 3";
    return resp;
  }

  // A demand vertex >= n is not on C_n: keying it would alias it onto a
  // ring demand, so it skips the cache and the algorithm answers it.
  const bool use_cache = cacheable_demand(req);
  CanonicalKey computed;
  if (use_cache) {
    if (!ck) ck = &(computed = canonical_request_key(req));
    if (auto hit = cache_.lookup(*ck)) return *std::move(hit);
  }

  // Resolve a relative deadline_ms into an absolute deadline unless the
  // serve layer already fixed one at accept time. The copy is taken only
  // when a deadline actually needs resolving — the common undeadlined
  // request never pays for it.
  CoverRequest local;
  const CoverRequest* eff = &req;
  if (!req.deadline.set() && req.deadline_ms > 0) {
    local = req;
    local.deadline = util::Deadline::after_ms(
        static_cast<std::int64_t>(req.deadline_ms));
    eff = &local;
  }

  util::Timer timer;
  try {
    AlgorithmOutcome out = algo->run(*eff);
    resp.ok = true;
    resp.found = out.found;
    resp.exhausted = out.exhausted;
    resp.timed_out = out.timed_out || out.cancelled;
    resp.nodes = out.nodes;
    resp.cover = std::move(out.cover);
    if (out.nodes) solver_nodes_->add(out.nodes);
    if (out.cancelled)
      cancellations_->add(1);
    else if (out.timed_out)
      timed_out_->add(1);
    // Graceful degradation: a deadline-expired exact solve is answered
    // with the greedy cover instead of a bare timeout. Shutdown
    // cancellation is exempt — its whole point is to finish fast.
    if (opts_.fallback_greedy && out.timed_out && !out.cancelled &&
        !resp.found) {
      AlgorithmOutcome fb = registry().find("greedy")->run(*eff);
      resp.cover = std::move(fb.cover);
      resp.found = fb.found;
      resp.degraded = true;
      degraded_->add(1);
    }
  } catch (const std::exception& e) {
    resp.error = e.what();
    resp.elapsed_ms = timer.millis();
    return resp;
  }

  if (eff->validate && resp.found) {
    resp.validated = true;
    if (algo->validate) {
      resp.valid = algo->validate(*eff, resp.cover);
    } else if (eff->demand.empty()) {
      resp.valid = covering::validate_cover(resp.cover).ok;
    } else {
      resp.valid = covering::validate_cover_against(
                       resp.cover, demand_graph(eff->n, eff->demand))
                       .ok;
    }
  }
  resp.elapsed_ms = timer.millis();

  if (use_cache) cache_.insert(*ck, resp);
  return resp;
}

}  // namespace ccov::engine
