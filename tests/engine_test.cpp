#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccov/baselines/c4_cover.hpp"
#include "ccov/baselines/emz.hpp"
#include "ccov/baselines/triple_cover.hpp"
#include "ccov/covering/bounds.hpp"
#include "ccov/covering/canonical.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/engine/batch.hpp"
#include "ccov/engine/cache.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/registry.hpp"
#include "ccov/engine/request.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/extensions/lambda_cover.hpp"
#include "ccov/util/failpoint.hpp"
#include "ccov/util/prng.hpp"
#include "reference_canonical_key.hpp"

namespace eng = ccov::engine;
namespace cov = ccov::covering;

namespace {

eng::CoverRequest make_req(const std::string& algo, std::uint32_t n) {
  eng::CoverRequest req;
  req.algorithm = algo;
  req.n = n;
  return req;
}

std::string rows_of(const std::vector<eng::CoverResponse>& responses) {
  std::string out;
  for (const auto& r : responses) out += eng::deterministic_row(r) + "\n";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, ResolvesAllBuiltinsByName) {
  auto& reg = eng::AlgorithmRegistry::global();
  const std::vector<std::string> expected = {
      "construct", "solve",  "solve-parallel", "greedy",
      "emz",       "c4",     "triple",         "lambda"};
  EXPECT_GE(reg.size(), 6u);
  for (const auto& name : expected) {
    const eng::Algorithm* algo = reg.find(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name, name);
    EXPECT_FALSE(algo->description.empty()) << name;
  }
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameIsNull) {
  EXPECT_EQ(eng::AlgorithmRegistry::global().find("frobnicate"), nullptr);
}

TEST(Registry, TableIsSortedUniqueAndRunnable) {
  // The table is fixed at compile time, so these are the checks a
  // runtime add() used to make: strictly sorted names (no duplicates),
  // every entry reachable by its own name, every entry with a run.
  const auto& reg = eng::AlgorithmRegistry::global();
  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names, (std::vector<std::string>{"c4", "construct", "emz",
                                             "greedy", "lambda", "solve",
                                             "solve-parallel", "triple"}));
  EXPECT_EQ(reg.size(), names.size());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end(),
                               std::greater_equal<>()),
            names.end());
  for (const std::string& name : names) {
    const eng::Algorithm* algo = reg.find(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name, name);
    EXPECT_NE(algo->run, nullptr) << name;
  }
  EXPECT_EQ(reg.find(""), nullptr);
  EXPECT_EQ(reg.find("solve-"), nullptr);
}

TEST(Registry, EveryBuiltinProducesACoverFor9) {
  eng::Engine engine;
  for (const auto& name : engine.registry().names()) {
    const auto resp = engine.run(make_req(name, 9));
    EXPECT_TRUE(resp.ok) << name << ": " << resp.error;
    EXPECT_TRUE(resp.found) << name;
    EXPECT_GT(resp.cover.size(), 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------------

TEST(Engine, UnknownAlgorithmIsAnErrorResponse) {
  eng::Engine engine;
  const auto resp = engine.run(make_req("no-such-algo", 9));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown algorithm"), std::string::npos);
}

TEST(Engine, TooSmallNIsAnErrorResponse) {
  eng::Engine engine;
  EXPECT_FALSE(engine.run(make_req("construct", 2)).ok);
}

TEST(Engine, UnsupportedRequestShapeIsAnErrorResponse) {
  eng::Engine engine;
  auto req = make_req("construct", 9);
  req.lambda = 3;  // construct only understands plain K_n
  const auto resp = engine.run(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.error.empty());
}

TEST(Engine, LambdaAlgorithmValidatesAgainstLambdaDemand) {
  eng::Engine engine;
  auto req = make_req("lambda", 7);
  req.lambda = 2;
  const auto resp = engine.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_TRUE(resp.validated);
  EXPECT_TRUE(resp.valid);
  EXPECT_TRUE(ccov::extensions::validate_lambda_cover(resp.cover, 2));
}

TEST(Engine, C4BaselineIsInvalidUnderDrcByDesign) {
  // Any 3 distinct ring vertices are circularly ordered, so the classical
  // triangle covering is always DRC-feasible; the classical C4 covering
  // is the baseline that genuinely ignores the routing constraint.
  eng::Engine engine;
  const auto resp = engine.run(make_req("c4", 9));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_TRUE(resp.validated);
  EXPECT_FALSE(resp.valid);
}

// ---------------------------------------------------------------------------
// CoverCache
// ---------------------------------------------------------------------------

TEST(CoverCache, WarmSolveHitSkipsTheSearch) {
  eng::Engine engine;
  auto req = make_req("solve", 8);
  req.budget = cov::rho(8);
  const auto cold = engine.run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.found);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.nodes, 0u);

  const auto warm = engine.run(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.nodes, 0u);  // nothing was re-searched
  EXPECT_TRUE(cov::covers_isomorphic(cold.cover, warm.cover));

  const auto stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CoverCache, CountsHitsAndMisses) {
  eng::CoverCache cache(8);
  eng::CoverRequest req = make_req("construct", 9);
  EXPECT_FALSE(cache.lookup(req).has_value());
  eng::CoverResponse resp;
  resp.ok = true;
  resp.found = true;
  resp.algorithm = "construct";
  resp.n = 9;
  resp.cover = cov::build_optimal_cover(9);
  cache.insert(req, resp);
  EXPECT_TRUE(cache.lookup(req).has_value());
  EXPECT_FALSE(cache.lookup(make_req("construct", 11)).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CoverCache, EvictsLeastRecentlyUsedAtCapacity) {
  // One shard: strict global LRU semantics (sharded caches only promise
  // per-shard LRU).
  eng::CoverCache cache(2, 1);
  auto mk_resp = [](std::uint32_t n) {
    eng::CoverResponse resp;
    resp.ok = true;
    resp.found = true;
    resp.n = n;
    resp.cover = cov::build_optimal_cover(n);
    return resp;
  };
  cache.insert(make_req("construct", 5), mk_resp(5));
  cache.insert(make_req("construct", 7), mk_resp(7));
  // Touch n=5 so n=7 is the LRU entry, then overflow.
  EXPECT_TRUE(cache.lookup(make_req("construct", 5)).has_value());
  cache.insert(make_req("construct", 9), mk_resp(9));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup(make_req("construct", 5)).has_value());
  EXPECT_TRUE(cache.lookup(make_req("construct", 9)).has_value());
  EXPECT_FALSE(cache.lookup(make_req("construct", 7)).has_value());
}

TEST(CoverCache, FailedResponsesAreNotCached) {
  eng::CoverCache cache(4);
  eng::CoverResponse bad;
  bad.ok = false;
  cache.insert(make_req("construct", 9), bad);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CoverCache, DihedrallyEquivalentDemandsShareOneEntry) {
  // The same sparse demand, once as-is, once rotated by 2, once
  // reflected: all three canonicalize to one key.
  const std::uint32_t n = 9;
  const std::vector<ccov::graph::Edge> base = {{0, 3}, {1, 4}, {2, 7}};
  auto transformed = [&](bool reflect, std::uint32_t shift) {
    std::vector<ccov::graph::Edge> out;
    for (const auto& e : base) {
      auto map = [&](std::uint32_t v) {
        const std::uint32_t r = reflect ? (n - v) % n : v;
        return (r + shift) % n;
      };
      out.push_back({map(e.u), map(e.v)});
    }
    return out;
  };

  auto req_with = [&](std::vector<ccov::graph::Edge> demand) {
    auto req = make_req("greedy", n);
    req.demand = std::move(demand);
    return req;
  };

  const auto k0 = eng::canonical_request_key(req_with(base));
  const auto k1 = eng::canonical_request_key(req_with(transformed(false, 2)));
  const auto k2 = eng::canonical_request_key(req_with(transformed(true, 5)));
  EXPECT_EQ(k0.key, k1.key);
  EXPECT_EQ(k0.key, k2.key);

  eng::Engine engine;
  const auto cold = engine.run(req_with(base));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);

  const auto rotated = req_with(transformed(false, 2));
  const auto hit = engine.run(rotated);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(engine.cache().size(), 1u);
  // The cover handed back is in the *rotated request's* frame: it must
  // cover the rotated demand exactly.
  EXPECT_TRUE(cov::validate_cover_against(
                  hit.cover, eng::demand_graph(n, rotated.demand))
                  .ok);

  const auto reflected = req_with(transformed(true, 5));
  const auto hit2 = engine.run(reflected);
  ASSERT_TRUE(hit2.ok) << hit2.error;
  EXPECT_TRUE(hit2.cache_hit);
  EXPECT_TRUE(cov::validate_cover_against(
                  hit2.cover, eng::demand_graph(n, reflected.demand))
                  .ok);
  EXPECT_EQ(engine.cache().size(), 1u);
  EXPECT_EQ(engine.cache().stats().hits, 2u);
}

TEST(CoverCache, ShouldCachePolicy) {
  eng::CoverResponse resp;
  resp.ok = false;
  EXPECT_FALSE(eng::CoverCache::should_cache(resp));  // genuine error
  resp.ok = true;
  resp.found = true;
  EXPECT_TRUE(eng::CoverCache::should_cache(resp));  // positive result
  resp.found = false;
  resp.exhausted = true;
  EXPECT_TRUE(eng::CoverCache::should_cache(resp));  // infeasibility proof
  resp.exhausted = false;
  EXPECT_FALSE(eng::CoverCache::should_cache(resp));  // budget-starved
}

TEST(CoverCache, ExhaustedInfeasibilityProofsAreCached) {
  // One cycle below the optimum is infeasible; the exhausted search is a
  // deterministic proof and must be served from the cache on repeat.
  eng::Engine engine;
  auto req = make_req("solve", 7);
  req.budget = cov::rho(7) - 1;
  const auto cold = engine.run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.found);
  EXPECT_TRUE(cold.exhausted);
  EXPECT_GT(cold.nodes, 0u);
  EXPECT_EQ(engine.cache().size(), 1u);

  const auto warm = engine.run(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.found);
  EXPECT_TRUE(warm.exhausted);
  EXPECT_EQ(warm.nodes, 0u);  // the proof was not re-searched
}

TEST(CoverCache, BudgetStarvedNegativesAreNotCached) {
  // A search cut off by the node budget (found = false, exhausted =
  // false) answers nothing and must be retried, not remembered.
  eng::Engine engine;
  auto req = make_req("solve", 9);
  req.budget = cov::rho(9);  // feasible, but far deeper than 3 nodes
  req.solver.max_nodes = 3;  // starve the search immediately
  const auto first = engine.run(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.found);
  EXPECT_FALSE(first.exhausted);
  EXPECT_EQ(engine.cache().size(), 0u);

  const auto second = engine.run(req);
  EXPECT_FALSE(second.cache_hit);  // re-searched, not served from cache
  EXPECT_GT(second.nodes, 0u);
}

TEST(CoverCache, ShardedHitsBackMapAcrossRandomDihedralElements) {
  // Property test for D_n correctness under sharding: random demand
  // graphs, random group elements — a hit through whichever shard the
  // canonical key lands in must return a cover in the *request's* frame
  // that covers the transformed demand.
  const std::uint32_t n = 11;
  ccov::util::Xoshiro256 rng(0xC0FFEEu);
  eng::Engine engine({.cache_capacity = 64, .cache_shards = 8});
  ASSERT_EQ(engine.cache().shard_count(), 8u);

  int hits_checked = 0;
  for (int iter = 0; iter < 25; ++iter) {
    // Distinct normalized chords only: greedy covers each demand chord
    // once, so a duplicate (multiplicity-2) demand would fail validation
    // for reasons unrelated to the cache.
    std::vector<ccov::graph::Edge> base;
    const std::size_t chords = 3 + rng.below(4);
    while (base.size() < chords) {
      auto u = static_cast<std::uint32_t>(rng.below(n));
      auto v = static_cast<std::uint32_t>(rng.below(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      const bool dup = std::any_of(
          base.begin(), base.end(),
          [&](const ccov::graph::Edge& e) { return e.u == u && e.v == v; });
      if (!dup) base.push_back({u, v});
    }
    auto req = make_req("greedy", n);
    req.demand = base;
    const auto cold = engine.run(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_TRUE(cold.found);

    const bool reflect = rng.below(2) != 0;
    const auto shift = static_cast<std::uint32_t>(rng.below(n));
    auto rotated = make_req("greedy", n);
    for (const auto& e : base) {
      auto map = [&](std::uint32_t v) {
        const std::uint32_t r = reflect ? (n - v) % n : v;
        return (r + shift) % n;
      };
      rotated.demand.push_back({map(e.u), map(e.v)});
    }
    const auto hit = engine.run(rotated);
    ASSERT_TRUE(hit.ok) << hit.error;
    ASSERT_TRUE(hit.cache_hit) << "D_n-equivalent request missed the cache";
    EXPECT_EQ(hit.nodes, 0u);
    EXPECT_TRUE(cov::validate_cover_against(
                    hit.cover, eng::demand_graph(n, rotated.demand))
                    .ok)
        << "hit cover does not back-map to the request frame";
    ++hits_checked;
  }
  EXPECT_EQ(hits_checked, 25);
  EXPECT_GE(engine.cache().stats().hits, 25u);
}

TEST(CoverCache, ConcurrentLookupsKeepAggregateStatsConsistent) {
  // Hammer all shards from several threads; the atomic aggregate
  // counters must account for every operation exactly once. Per-shard
  // capacity (128 / 8 = 16) covers all 16 keys even if the (platform-
  // dependent) hash piles every key onto one shard, so no insert can
  // evict and the arithmetic below is exact everywhere.
  eng::CoverCache cache(128, 8);
  std::vector<eng::CoverRequest> reqs;
  for (std::uint32_t n = 3; n <= 18; ++n) {
    eng::CoverRequest req = make_req("construct", n);
    eng::CoverResponse resp;
    resp.ok = true;
    resp.found = true;
    resp.n = n;
    resp.algorithm = "construct";
    resp.cover = cov::build_optimal_cover(n);
    cache.insert(req, resp);
    reqs.push_back(req);
  }
  ASSERT_EQ(cache.size(), 16u);
  const auto baseline = cache.stats();

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& req : reqs) EXPECT_TRUE(cache.lookup(req));
        EXPECT_FALSE(cache.lookup(make_req("construct", 99)));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits - baseline.hits, kThreads * kRounds * reqs.size());
  EXPECT_EQ(stats.misses - baseline.misses,
            static_cast<std::uint64_t>(kThreads * kRounds));
}

TEST(CoverCache, ApplyElementRoundTrips) {
  const auto cover = cov::build_optimal_cover(9);
  for (const bool reflect : {false, true}) {
    for (std::uint32_t shift = 0; shift < 9; ++shift) {
      const eng::DihedralElement g{reflect, shift};
      const auto there = eng::apply_element(cover, g);
      const auto back = eng::apply_inverse(there, g);
      EXPECT_TRUE(cov::covers_isomorphic(cover, there));
      // Round trip is the identity on the nose, not just up to D_n.
      EXPECT_EQ(cov::canonical_cover(back).cycles,
                cov::canonical_cover(cover).cycles);
      EXPECT_TRUE(cov::validate_cover(back).ok);
    }
  }
}

TEST(CoverCache, CanonicalKeyMatchesExhaustiveScan) {
  // The fast kernel builds only the images that start with the shortest
  // chord; the reference builds all 2n. Key bytes and the chosen group
  // element must agree everywhere — including the demands whose
  // stabilizer in D_n is non-trivial, where several elements reach the
  // least image and the tie rule alone decides which one is reported.
  ccov::util::Xoshiro256 rng(0x5eed'cafeu);
  const auto map = [](const ccov::graph::Edge& e, std::uint32_t n,
                      bool reflect, std::uint32_t shift) {
    const auto f = [&](std::uint32_t v) {
      return ((reflect ? (n - v) % n : v) + shift) % n;
    };
    return ccov::graph::Edge{f(e.u), f(e.v)};
  };
  const auto random_chord = [&](std::uint32_t n) {
    return ccov::graph::Edge{static_cast<std::uint32_t>(rng.below(n)),
                             static_cast<std::uint32_t>(rng.below(n))};
  };
  int checked = 0;
  const auto expect_same = [&](std::uint32_t n,
                               std::vector<ccov::graph::Edge> demand,
                               const std::string& what) {
    auto req = make_req(rng.below(2) ? "greedy" : "solve", n);
    req.demand = std::move(demand);
    const eng::CanonicalKey fast = eng::canonical_request_key(req);
    const eng::CanonicalKey ref = eng::reference::canonical_request_key(req);
    ASSERT_EQ(fast.key, ref.key) << what << " n=" << n;
    ASSERT_EQ(fast.to_canonical.reflect, ref.to_canonical.reflect)
        << what << " n=" << n << " key " << ref.key;
    ASSERT_EQ(fast.to_canonical.shift, ref.to_canonical.shift)
        << what << " n=" << n << " key " << ref.key;
    ++checked;
  };

  for (std::uint32_t n = 3; n <= 64; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      // Random multisets: every chord drawn independently, so self-loops
      // (u == v) and repeated chords occur at their natural rate.
      std::vector<ccov::graph::Edge> demand;
      const std::size_t m = 1 + rng.below(40);
      for (std::size_t i = 0; i < m; ++i) demand.push_back(random_chord(n));
      expect_same(n, demand, "random");

      // Explicit duplicates and a self-loop on top of a random demand.
      demand.push_back(demand[rng.below(demand.size())]);
      demand.push_back(demand.front());
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      demand.push_back({v, v});
      expect_same(n, demand, "duplicates+loop");
    }
    // Orbit-built demands: the orbit of a few chords under rotation by
    // n / d (and optionally the reflection), then moved by a random
    // element so the least image is reached by several elements away
    // from the identity.
    for (std::uint32_t d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      const std::uint32_t step = n / d;
      for (const bool with_reflection : {false, true}) {
        std::vector<ccov::graph::Edge> base;
        const std::size_t seeds = 1 + rng.below(3);
        for (std::size_t i = 0; i < seeds; ++i) base.push_back(random_chord(n));
        std::vector<ccov::graph::Edge> orbit;
        for (const auto& e : base) {
          for (std::uint32_t j = 0; j < d; ++j) {
            orbit.push_back(map(e, n, false, j * step));
            if (with_reflection) orbit.push_back(map(e, n, true, j * step));
          }
        }
        const bool reflect = rng.below(2) != 0;
        const auto shift = static_cast<std::uint32_t>(rng.below(n));
        for (auto& e : orbit) e = map(e, n, reflect, shift);
        // Chord order within the request must not matter either.
        std::reverse(orbit.begin(), orbit.end());
        expect_same(n, orbit, "orbit d=" + std::to_string(d));
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

// ---------------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------------

TEST(BatchRunner, SweepIsByteIdenticalAcrossJobCounts) {
  // The acceptance sweep: construct for every n in 3..15 plus the exact
  // solver for the small sizes, with 1 worker, 4 workers and hardware
  // concurrency (jobs = 0). The deterministic rows must match byte for
  // byte.
  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 3; n <= 15; ++n)
    requests.push_back(make_req("construct", n));
  for (std::uint32_t n = 3; n <= 9; ++n) {
    auto req = make_req("solve", n);
    req.budget = cov::rho(n);
    requests.push_back(req);
  }

  eng::Engine engine1;
  eng::BatchRunner serial(engine1, {.jobs = 1});
  const std::string rows1 = rows_of(serial.run(requests));

  eng::Engine engine4;
  eng::BatchRunner parallel(engine4, {.jobs = 4});
  const std::string rows4 = rows_of(parallel.run(requests));

  eng::Engine engine_hw;
  eng::BatchRunner hw(engine_hw, {.jobs = 0});
  const std::string rows_hw = rows_of(hw.run(requests));

  EXPECT_EQ(rows1, rows4);
  EXPECT_EQ(rows1, rows_hw);
  EXPECT_FALSE(rows1.empty());
}

TEST(BatchRunner, ReusesTheEngineSharedPoolAcrossRuns) {
  // run() must not construct a pool per call: the engine's shared pool
  // is created once and every batch fans out over it.
  eng::Engine engine;
  ccov::util::ThreadPool* pool = &engine.pool();
  EXPECT_EQ(pool, &engine.pool());

  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 3; n <= 12; ++n)
    requests.push_back(make_req("construct", n));
  eng::BatchRunner runner(engine, {.jobs = 4});
  for (int round = 0; round < 3; ++round) {
    const auto responses = runner.run(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (const auto& resp : responses) EXPECT_TRUE(resp.ok) << resp.error;
  }
  EXPECT_EQ(pool, &engine.pool());
}

TEST(BatchRunner, ConcurrentBatchesOnOneEngineStayIsolated) {
  // Two batches racing on one engine (one shared pool): each caller's
  // results must be index-aligned with its own requests — the TaskGroup
  // tokens keep the batches from waiting on (or failing for) each other.
  eng::Engine engine;
  auto worker = [&engine](const std::string& algo, std::uint32_t lo,
                          std::uint32_t hi) {
    std::vector<eng::CoverRequest> requests;
    for (std::uint32_t n = lo; n <= hi; ++n) {
      eng::CoverRequest req;
      req.algorithm = algo;
      req.n = n;
      requests.push_back(req);
    }
    eng::BatchRunner runner(engine, {.jobs = 4});
    const auto responses = runner.run(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(responses[i].n, requests[i].n);
      EXPECT_EQ(responses[i].algorithm, algo);
      EXPECT_TRUE(responses[i].ok) << responses[i].error;
    }
  };
  std::thread a(worker, "construct", 3u, 24u);
  std::thread b(worker, "greedy", 3u, 24u);
  a.join();
  b.join();
}

TEST(BatchRunner, DuplicateRequestsStayByteIdenticalAcrossJobCounts) {
  // Serially the second duplicate hits the warm cache (nodes = 0); the
  // parallel path must not let both copies race past the cache and
  // report different node counts.
  std::vector<eng::CoverRequest> requests;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::uint32_t n = 7; n <= 9; ++n) {
      auto req = make_req("solve", n);
      req.budget = cov::rho(n);
      requests.push_back(req);
    }
  }
  eng::Engine engine1;
  eng::BatchRunner serial(engine1, {.jobs = 1});
  const std::string rows1 = rows_of(serial.run(requests));

  eng::Engine engine4;
  eng::BatchRunner parallel(engine4, {.jobs = 4});
  const std::string rows4 = rows_of(parallel.run(requests));
  EXPECT_EQ(rows1, rows4);
}

TEST(BatchRunner, ResultsAreIndexAlignedWithRequests) {
  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 15; n >= 3; --n)  // deliberately decreasing
    requests.push_back(make_req("greedy", n));
  eng::Engine engine;
  eng::BatchRunner runner(engine, {.jobs = 4});
  const auto responses = runner.run(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].n, requests[i].n) << i;
    EXPECT_EQ(responses[i].algorithm, "greedy") << i;
    EXPECT_TRUE(responses[i].ok) << responses[i].error;
  }
}

TEST(BatchRunner, BadRequestsDoNotPoisonTheBatch) {
  std::vector<eng::CoverRequest> requests = {
      make_req("construct", 9), make_req("no-such-algo", 9),
      make_req("construct", 2), make_req("construct", 11)};
  eng::Engine engine;
  eng::BatchRunner runner(engine, {.jobs = 2});
  const auto responses = runner.run(requests);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_FALSE(responses[2].ok);
  EXPECT_TRUE(responses[3].ok);
}

// ---------------------------------------------------------------------------
// Migrated bench tables: engine rows == bespoke-loop rows
// ---------------------------------------------------------------------------

TEST(MigratedTables, Theorem1RowsMatchDirectCalls) {
  eng::Engine engine;
  eng::BatchRunner runner(engine);
  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 3; n <= 21; n += 2)
    requests.push_back(make_req("construct", n));
  const auto responses = runner.run(requests);
  for (const auto& resp : responses) {
    const auto direct = cov::construct_odd_cover(resp.n);
    EXPECT_EQ(resp.cover.size(), direct.size()) << resp.n;
    EXPECT_EQ(cov::count_c3(resp.cover), cov::count_c3(direct)) << resp.n;
    EXPECT_EQ(cov::count_c4(resp.cover), cov::count_c4(direct)) << resp.n;
    EXPECT_EQ(resp.valid, cov::validate_cover(direct).ok) << resp.n;
  }
}

TEST(MigratedTables, Theorem2RowsMatchDirectCalls) {
  eng::Engine engine;
  eng::BatchRunner runner(engine);
  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 4; n <= 20; n += 2)
    requests.push_back(make_req("construct", n));
  const auto responses = runner.run(requests);
  for (const auto& resp : responses) {
    const auto direct = cov::construct_even_cover(resp.n);
    EXPECT_EQ(resp.cover.size(), direct.size()) << resp.n;
    EXPECT_EQ(cov::count_c3(resp.cover), cov::count_c3(direct)) << resp.n;
    EXPECT_EQ(cov::count_c4(resp.cover), cov::count_c4(direct)) << resp.n;
  }
}

TEST(MigratedTables, BaselineRowsMatchDirectCalls) {
  eng::Engine engine;
  eng::BatchRunner runner(engine);
  const std::vector<std::string> algos = {"construct", "greedy", "triple",
                                          "c4", "emz"};
  std::vector<eng::CoverRequest> requests;
  for (const auto& algo : algos) {
    auto req = make_req(algo, 11);
    req.validate = false;
    requests.push_back(req);
  }
  const auto responses = runner.run(requests);
  EXPECT_EQ(responses[0].cover.size(), cov::build_optimal_cover(11).size());
  EXPECT_EQ(responses[1].cover.size(), cov::greedy_cover(11).size());
  EXPECT_EQ(responses[2].cover.size(),
            ccov::baselines::greedy_triple_cover(11).size());
  EXPECT_EQ(responses[3].cover.size(),
            ccov::baselines::greedy_c4_cover(11).size());
  EXPECT_EQ(responses[4].cover.size(),
            ccov::baselines::emz_greedy_cover(11).size());
  EXPECT_EQ(ccov::baselines::emz_objective(responses[0].cover),
            ccov::baselines::emz_objective(cov::build_optimal_cover(11)));
}

// ---------------------------------------------------------------------------
// Snapshot persistence (store.hpp)
// ---------------------------------------------------------------------------

namespace {

/// A mixed workload: constructions, a positive exact search, a cached
/// infeasibility proof and a demand-graph greedy cover.
std::vector<eng::CoverRequest> snapshot_workload() {
  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 5; n <= 12; ++n)
    requests.push_back(make_req("construct", n));
  auto solve = make_req("solve", 8);
  solve.budget = cov::rho(8);
  requests.push_back(solve);
  auto infeasible = make_req("solve", 7);
  infeasible.budget = cov::rho(7) - 1;
  requests.push_back(infeasible);
  auto greedy = make_req("greedy", 9);
  greedy.demand = {{0, 3}, {1, 4}, {2, 7}};
  requests.push_back(greedy);
  return requests;
}

}  // namespace

TEST(Snapshot, SaveLoadSaveIsByteStable) {
  eng::Engine engine;
  for (const auto& req : snapshot_workload())
    ASSERT_TRUE(engine.run(req).ok);
  ASSERT_GT(engine.cache().size(), 0u);

  std::ostringstream first;
  eng::save_snapshot(first, engine.cache());

  eng::CoverCache loaded(256);
  std::istringstream in(first.str());
  EXPECT_EQ(eng::load_snapshot(in, loaded), engine.cache().size());
  EXPECT_EQ(loaded.size(), engine.cache().size());

  std::ostringstream second;
  eng::save_snapshot(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Snapshot, WarmStartedEngineServesByteIdenticalResponses) {
  const auto requests = snapshot_workload();
  eng::Engine cold;
  for (const auto& req : requests) ASSERT_TRUE(cold.run(req).ok);
  // Warm rows from the engine that did the work: every repeat is a hit.
  std::vector<eng::CoverResponse> warm_direct;
  for (const auto& req : requests) warm_direct.push_back(cold.run(req));

  std::ostringstream snap;
  eng::save_snapshot(snap, cold.cache());
  eng::Engine restored;
  std::istringstream in(snap.str());
  eng::load_snapshot(in, restored.cache());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto resp = restored.run(requests[i]);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(resp.cache_hit) << i;
    EXPECT_EQ(resp.nodes, 0u) << i;
    EXPECT_EQ(eng::deterministic_row(resp),
              eng::deterministic_row(warm_direct[i]))
        << i;
  }
}

TEST(Snapshot, RejectsCorruptStreams) {
  eng::Engine engine;
  ASSERT_TRUE(engine.run(make_req("construct", 9)).ok);
  ASSERT_TRUE(engine.run(make_req("construct", 11)).ok);
  std::ostringstream snap;
  eng::save_snapshot(snap, engine.cache());
  const std::string bytes = snap.str();

  eng::CoverCache cache(16);
  {
    std::istringstream bad("definitely not a snapshot");
    EXPECT_THROW(eng::load_snapshot(bad, cache), std::runtime_error);
  }
  {
    // Truncated inside the second of two entries: the first, fully
    // decodable entry must NOT leak into the destination cache.
    std::istringstream truncated(bytes.substr(0, bytes.size() - 7));
    EXPECT_THROW(eng::load_snapshot(truncated, cache), std::runtime_error);
  }
  {
    std::string future = bytes;
    future[8] = static_cast<char>(0xfe);  // version field
    std::istringstream unknown(future);
    EXPECT_THROW(eng::load_snapshot(unknown, cache), std::runtime_error);
  }
  {
    // An absurd cycle count must be rejected before any allocation
    // sized by it (clean runtime_error, not bad_alloc): overwrite the
    // cover's cycle-count field of the first entry with 0xFFFFFFFF.
    // Layout after the 20-byte header: key(string), flags u8,
    // algorithm(string), error(string), n u32, nodes u64, cover.n u32,
    // cycles u32.
    std::string huge = bytes;
    std::size_t off = 8 + 4 + 8;                     // magic+version+count
    auto u32_at = [&](std::size_t pos) {
      return static_cast<std::uint32_t>(
                 static_cast<unsigned char>(huge[pos])) |
             static_cast<std::uint32_t>(
                 static_cast<unsigned char>(huge[pos + 1]))
                 << 8 |
             static_cast<std::uint32_t>(
                 static_cast<unsigned char>(huge[pos + 2]))
                 << 16 |
             static_cast<std::uint32_t>(
                 static_cast<unsigned char>(huge[pos + 3]))
                 << 24;
    };
    off += 4 + u32_at(off);  // key
    off += 1;                // flags
    off += 4 + u32_at(off);  // algorithm
    off += 4 + u32_at(off);  // error
    off += 4 + 8 + 4;        // n, nodes, cover.n
    huge[off] = huge[off + 1] = huge[off + 2] = huge[off + 3] =
        static_cast<char>(0xff);
    std::istringstream absurd(huge);
    EXPECT_THROW(eng::load_snapshot(absurd, cache), std::runtime_error);
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Snapshot, RejectsImplausibleStringLengths) {
  // Fuzzer-found (fuzz_snapshot, pinned as
  // tests/fuzz_corpus/snapshot/crash-huge-string): a 24-byte stream
  // declaring a 4 GiB key sized a 4 GiB std::string before a single
  // payload byte was read. The loader must reject the length up front
  // with a clean runtime_error — never attempt the allocation.
  std::string bytes;
  bytes += std::string(eng::kSnapshotMagic, sizeof eng::kSnapshotMagic);
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes += static_cast<char>((v >> (8 * i)) & 0xff);
  };
  put_u32(eng::kSnapshotVersion);
  put_u32(1);  // entry count (u64, little-endian: low word then
  put_u32(0);  // high word)
  put_u32(0xFFFFFFFFu);  // key length: 4 GiB on a 24-byte stream
  eng::CoverCache cache(4);
  std::istringstream is(bytes);
  EXPECT_THROW(eng::load_snapshot(is, cache), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
}

namespace {

/// RAII guard arming one failpoint for the scope of a test block.
class FailPointGuard {
 public:
  FailPointGuard(const std::string& name, const std::string& spec)
      : name_(name) {
    std::string err;
    EXPECT_TRUE(ccov::util::failpoint::set(name_, spec, &err)) << err;
  }
  ~FailPointGuard() { ccov::util::failpoint::clear(name_); }

 private:
  std::string name_;
};

std::string read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

TEST(Snapshot, InterruptedSaveNeverCorruptsThePreviousSnapshot) {
  if (!ccov::util::failpoint::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "ccov_atomic_save_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "store.bin").string();

  // A good snapshot with one entry.
  eng::Engine engine;
  ASSERT_TRUE(engine.run(make_req("construct", 9)).ok);
  eng::save_snapshot_file(path, engine.cache());
  const std::string good_bytes = read_file_bytes(path);
  ASSERT_FALSE(good_bytes.empty());

  // A bigger store whose save dies at each stage of the atomic dance in
  // turn: open refused, write failed (ENOSPC), fsync failed (EIO),
  // rename failed — the last one firing *after* the temp file was fully
  // written. Whatever the stage, the target file must be untouched and
  // no temp debris may remain.
  ASSERT_TRUE(engine.run(make_req("construct", 11)).ok);
  for (const char* point : {"snapshot_open", "snapshot_write",
                            "snapshot_fsync", "snapshot_rename"}) {
    FailPointGuard guard(point, "error");
    EXPECT_THROW(eng::save_snapshot_file(path, engine.cache()),
                 std::runtime_error)
        << point;
    EXPECT_EQ(ccov::util::failpoint::hits(point), 1u);
    // The old snapshot survived byte for byte and still loads...
    EXPECT_EQ(read_file_bytes(path), good_bytes) << point;
    eng::CoverCache check(256);
    EXPECT_EQ(eng::load_snapshot_file(path, check), 1u) << point;
    // ...and the dead save's temp file was cleaned up.
    for (const auto& entry : fs::directory_iterator(dir))
      EXPECT_EQ(entry.path().string(), path)
          << "unexpected leftover: " << entry.path();
  }

  // With the fault gone, the same save completes and replaces the file.
  eng::save_snapshot_file(path, engine.cache());
  eng::CoverCache merged(256);
  EXPECT_EQ(eng::load_snapshot_file(path, merged), 2u);
  fs::remove_all(dir);
}

TEST(Snapshot, SaveToUnwritableDirectoryLeavesNoTrace) {
  namespace fs = std::filesystem;
  const std::string path = (fs::path(testing::TempDir()) /
                            "ccov_no_such_dir" / "deeper" / "store.bin")
                               .string();
  eng::Engine engine;
  ASSERT_TRUE(engine.run(make_req("construct", 9)).ok);
  EXPECT_THROW(eng::save_snapshot_file(path, engine.cache()),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// Serve protocol (serve.hpp)
// ---------------------------------------------------------------------------

TEST(Serve, ParsesComputeRequestsAndControlVerbs) {
  eng::ServeCommand cmd;
  std::string error;
  ASSERT_TRUE(eng::parse_serve_line(
      R"({"algo":"solve","n":8,"budget":10,"lambda":2,"validate":false,)"
      R"("max_nodes":1000,"demand":[[0,3],[1,4]]})",
      &cmd, &error))
      << error;
  EXPECT_TRUE(cmd.is_request());
  EXPECT_EQ(cmd.req.algorithm, "solve");
  EXPECT_EQ(cmd.req.n, 8u);
  EXPECT_EQ(cmd.req.budget, 10u);
  EXPECT_EQ(cmd.req.lambda, 2u);
  EXPECT_FALSE(cmd.req.validate);
  EXPECT_EQ(cmd.req.solver.max_nodes, 1000u);
  ASSERT_EQ(cmd.req.demand.size(), 2u);
  EXPECT_EQ(cmd.req.demand[1].u, 1u);
  EXPECT_EQ(cmd.req.demand[1].v, 4u);

  ASSERT_TRUE(eng::parse_serve_line(R"({"op":"stats"})", &cmd, &error))
      << error;
  ASSERT_FALSE(cmd.is_request());
  EXPECT_EQ(cmd.verb->name, "stats");
  ASSERT_TRUE(eng::parse_serve_line(R"({"op":"save"})", &cmd, &error));
  ASSERT_FALSE(cmd.is_request());
  EXPECT_EQ(cmd.verb->name, "save");
  ASSERT_TRUE(eng::parse_serve_line(R"({"op":"clear"})", &cmd, &error));
  ASSERT_FALSE(cmd.is_request());
  EXPECT_EQ(cmd.verb->name, "clear");
  ASSERT_TRUE(eng::parse_serve_line(R"({"op":"metrics"})", &cmd, &error));
  ASSERT_FALSE(cmd.is_request());
  EXPECT_EQ(cmd.verb->name, "metrics");
}

TEST(Serve, RegistryListsBuiltinVerbsSorted) {
  const auto& reg = eng::ServeVerbRegistry::global();
  EXPECT_GE(reg.size(), 4u);
  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected : {"clear", "metrics", "save", "stats"}) {
    const eng::ServeVerb* verb = reg.find(expected);
    ASSERT_NE(verb, nullptr) << expected;
    EXPECT_EQ(verb->name, expected);
    EXPECT_FALSE(verb->description.empty());
  }
  EXPECT_EQ(reg.find("no-such-verb"), nullptr);
}

TEST(Serve, VerbTableIsSortedUniqueAndRunnable) {
  const auto& reg = eng::ServeVerbRegistry::global();
  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"clear", "metrics", "save", "stats"}));
  EXPECT_EQ(reg.size(), names.size());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end(),
                               std::greater_equal<>()),
            names.end());
  for (const std::string& name : names) {
    const eng::ServeVerb* verb = reg.find(name);
    ASSERT_NE(verb, nullptr) << name;
    EXPECT_EQ(verb->name, name);
    EXPECT_NE(verb->run, nullptr) << name;
  }
}

TEST(Serve, UnknownVerbErrorIsPinned) {
  eng::ServeCommand cmd;
  std::string error;
  EXPECT_FALSE(eng::parse_serve_line(R"({"op":"frobnicate"})", &cmd, &error));
  EXPECT_EQ("parse: " + error,
            "parse: unknown control verb 'frobnicate' (valid: clear, "
            "metrics, save, stats)");
  eng::Engine engine;
  std::istringstream in("{\"op\":\"frobnicate\"}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, {}), 0);
  EXPECT_EQ(out.str(),
            "{\"id\":0,\"ok\":false,\"error\":\"parse: unknown control verb "
            "'frobnicate' (valid: clear, metrics, save, stats)\"}\n");
}

TEST(Serve, RejectsMalformedLines) {
  eng::ServeCommand cmd;
  std::string error;
  EXPECT_FALSE(eng::parse_serve_line("", &cmd, &error));
  EXPECT_FALSE(eng::parse_serve_line("not json", &cmd, &error));
  EXPECT_FALSE(eng::parse_serve_line(R"({"algo":"solve"})", &cmd, &error));
  EXPECT_NE(error.find("missing required field 'n'"), std::string::npos);
  EXPECT_FALSE(eng::parse_serve_line(R"({"n":9})", &cmd, &error));
  EXPECT_FALSE(
      eng::parse_serve_line(R"({"algo":"solve","n":-3})", &cmd, &error));
  EXPECT_FALSE(eng::parse_serve_line(R"({"algo":"solve","n":9,"bogus":1})",
                                     &cmd, &error));
  EXPECT_NE(error.find("unknown field"), std::string::npos);
  EXPECT_FALSE(eng::parse_serve_line(R"({"op":"frobnicate"})", &cmd, &error));
  // An unknown op tells the client what would have worked.
  EXPECT_NE(error.find("unknown control verb 'frobnicate'"),
            std::string::npos)
      << error;
  for (const char* valid : {"clear", "metrics", "save", "stats"})
    EXPECT_NE(error.find(valid), std::string::npos) << error;
  EXPECT_FALSE(eng::parse_serve_line(R"({"op":"stats","extra":1})", &cmd,
                                     &error));
  EXPECT_NE(error.find("control verbs take no other fields"),
            std::string::npos)
      << error;
  EXPECT_FALSE(eng::parse_serve_line(R"([1,2,3])", &cmd, &error));
  EXPECT_FALSE(
      eng::parse_serve_line(R"({"algo":"solve","n":9} trailing)", &cmd,
                            &error));
}

namespace {

std::string run_serve(const std::string& input, std::size_t jobs,
                      std::size_t batch) {
  eng::Engine engine;
  eng::ServeConfig opts;
  opts.jobs = jobs;
  opts.batch = batch;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(eng::serve_loop(in, out, engine, opts), 0);
  return out.str();
}

}  // namespace

TEST(Engine, ThreadsAboveTheHardwareCountAnswerLikeThreadsZero) {
  // solve-parallel clamps its pool to the hardware thread count, and its
  // nodes and witness do not depend on the count, so asking for four
  // times the cores answers the same bytes as asking for all of them.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t many = std::min<std::size_t>(4 * hw, 4096);
  const std::string line = R"({"algo":"solve-parallel","n":8,"threads":)";
  const std::string all = run_serve(line + "0}\n", 1, 1);
  const std::string over =
      run_serve(line + std::to_string(many) + "}\n", 1, 1);
  EXPECT_NE(all.find("\"ok\":true"), std::string::npos) << all;
  EXPECT_EQ(over, all);
}

TEST(Engine, OutOfRangeDemandIsAnsweredTheSameColdAndWarm) {
  // A demand vertex >= n is not on C_30. Reducing it mod n to build a
  // key would alias [0,35] onto [0,5] and serve that cover from a warm
  // store; instead such a request is never looked up or cached, so the
  // algorithm's own error answers it cold and warm alike.
  const std::string bad = R"({"algo":"greedy","n":30,"demand":[[0,35]]})";
  const std::string good = R"({"algo":"greedy","n":30,"demand":[[0,5]]})";
  for (const auto& [jobs, batch] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 1}, {2, 4}}) {
    const std::string out =
        run_serve(bad + "\n" + good + "\n" + bad + "\n", jobs, batch);
    std::vector<std::string> lines;
    std::istringstream is(out);
    for (std::string l; std::getline(is, l);) lines.push_back(l);
    ASSERT_EQ(lines.size(), 3u) << out;
    EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("out of range"), std::string::npos) << lines[0];
    EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
    // Same answer as cold, up to the id.
    EXPECT_EQ(lines[2].substr(lines[2].find(",\"ok\"")),
              lines[0].substr(lines[0].find(",\"ok\"")));
  }

  eng::Engine engine;
  auto req = make_req("greedy", 30);
  req.demand = {{0, 35}};
  EXPECT_FALSE(eng::cacheable_demand(req));
  const eng::CoverResponse cold = engine.run(req);
  auto in_range = make_req("greedy", 30);
  in_range.demand = {{0, 5}};
  ASSERT_TRUE(engine.run(in_range).ok);
  const eng::CoverResponse warm = engine.run(req);
  EXPECT_FALSE(cold.ok);
  EXPECT_FALSE(warm.ok);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(warm.error, cold.error);
  EXPECT_EQ(engine.cache().size(), 1u);
  // The key of a non-ring demand never equals a ring key.
  EXPECT_NE(eng::canonical_request_key(req).key,
            eng::canonical_request_key(in_range).key);
}

TEST(Engine, RepeatedDemandChordIsDemandedOnce) {
  // The greedy covers the demand as a set, so a chord listed twice is
  // validated once too: both requests get the same valid cover.
  eng::Engine engine;
  auto repeated = make_req("greedy", 6);
  repeated.demand = {{0, 1}, {1, 0}, {2, 4}};
  auto once = make_req("greedy", 6);
  once.demand = {{0, 1}, {2, 4}};
  const eng::CoverResponse a = engine.run(repeated);
  const eng::CoverResponse b = engine.run(once);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_TRUE(a.validated);
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(ccov::covering::to_string(a.cover),
            ccov::covering::to_string(b.cover));
  // Keys still see the list as given: two entries, equal answers.
  EXPECT_NE(eng::canonical_request_key(repeated).key,
            eng::canonical_request_key(once).key);
  EXPECT_EQ(engine.cache().size(), 2u);
  EXPECT_EQ(eng::demand_graph(6, repeated.demand).num_edges(), 2u);
}

TEST(Serve, RepeatedDemandChordLineIsValid) {
  const std::string out = run_serve(
      "{\"algo\":\"greedy\",\"n\":6,\"demand\":[[0,1],[0,1],[2,4]]}\n"
      "{\"algo\":\"greedy\",\"n\":6,\"demand\":[[0,1],[2,4]]}\n",
      1, 1);
  std::vector<std::string> lines;
  std::istringstream is(out);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 2u) << out;
  EXPECT_NE(lines[0].find("\"valid\":true"), std::string::npos) << lines[0];
  // Same answer as the line without the repeat, up to the id.
  EXPECT_EQ(lines[0].substr(lines[0].find(",\"ok\"")),
            lines[1].substr(lines[1].find(",\"ok\"")));
}

TEST(Serve, LoopIsIndexAlignedAndByteIdenticalAcrossJobs) {
  const std::string input =
      R"({"algo":"construct","n":9})"
      "\n"
      R"({"algo":"solve","n":7})"
      "\n"
      R"({"algo":"greedy","n":9,"demand":[[0,3],[1,4],[2,7]]})"
      "\n"
      R"({"algo":"greedy","n":9,"demand":[[2,5],[3,6],[0,4]]})"
      "\n"  // the same demand rotated by 2: must hit the cache
      R"({"algo":"construct","n":9})"
      "\n"  // duplicate: must hit the cache
      "this line is not json\n"
      R"({"op":"stats"})"
      "\n"
      R"({"algo":"no-such-algo","n":9})"
      "\n";

  const std::string serial = run_serve(input, 1, 1);
  const std::string batched = run_serve(input, 4, 8);
  const std::string hw = run_serve(input, 0, 4);
  EXPECT_EQ(serial, batched);
  EXPECT_EQ(serial, hw);

  // One response line per input line, ids in input order.
  std::istringstream lines(serial);
  std::string line;
  std::uint64_t expect_id = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "{\"id\":" + std::to_string(expect_id) + ",";
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    ++expect_id;
  }
  EXPECT_EQ(expect_id, 8u);

  // The D_n-equivalent greedy repeat and the duplicate construct were
  // served from the cache without any search.
  EXPECT_NE(serial.find("\"id\":3,\"ok\":true,\"algo\":\"greedy\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"nodes\":0,\"cache_hit\":true"), std::string::npos);
  // The malformed line answered in-band, the unknown algorithm too.
  EXPECT_NE(serial.find("\"id\":5,\"ok\":false,\"error\":\"parse:"),
            std::string::npos);
  EXPECT_NE(serial.find("\"id\":6,\"op\":\"stats\",\"ok\":true"),
            std::string::npos);
  EXPECT_NE(serial.find("\"id\":7,\"ok\":false"), std::string::npos);
}

TEST(Serve, SaveVerbPersistsAndWarmStartsTheNextLoop) {
  const std::string path =
      testing::TempDir() + "/ccov_serve_snapshot_test.bin";
  std::filesystem::remove(path);

  eng::Engine first;
  eng::ServeConfig opts;
  opts.jobs = 1;
  opts.batch = 1;
  opts.cache_file = path;
  {
    std::istringstream in(
        "{\"algo\":\"solve\",\"n\":8}\n{\"op\":\"save\"}\n");
    std::ostringstream out;
    ASSERT_EQ(eng::serve_loop(in, out, first, opts), 0);
    EXPECT_NE(out.str().find("\"op\":\"save\",\"ok\":true"),
              std::string::npos);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  eng::Engine second;
  ASSERT_GT(eng::load_snapshot_file(path, second.cache()), 0u);
  {
    std::istringstream in("{\"algo\":\"solve\",\"n\":8}\n");
    std::ostringstream out;
    ASSERT_EQ(eng::serve_loop(in, out, second, opts), 0);
    EXPECT_NE(out.str().find("\"nodes\":0,\"cache_hit\":true"),
              std::string::npos)
        << out.str();
  }
  std::filesystem::remove(path);
}

TEST(Serve, SaveVerbWithoutCacheFileIsAnInBandError) {
  const std::string out = run_serve("{\"op\":\"save\"}\n", 1, 1);
  EXPECT_NE(out.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out.find("no --cache-file"), std::string::npos);
}

namespace {

/// A ServeStream that delivers input one byte per read — the worst-case
/// framing a slow network or interactive client can produce — and then
/// holds the end of the stream back for `eof_delay_ms`.
class TrickleStream final : public eng::ServeStream {
 public:
  explicit TrickleStream(std::string input, int eof_delay_ms = 0)
      : input_(std::move(input)), eof_delay_ms_(eof_delay_ms) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    if (pos_ >= input_.size() || n == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(eof_delay_ms_));
      return 0;
    }
    buf[0] = input_[pos_++];
    return 1;
  }

  bool write_all(const char* data, std::size_t n) override {
    output_.append(data, n);
    return true;
  }

  const std::string& output() const { return output_; }

 private:
  std::string input_;
  int eof_delay_ms_;
  std::size_t pos_ = 0;
  std::string output_;
};

}  // namespace

TEST(Serve, SessionIsByteIdenticalUnderOneBytePacketization) {
  const std::string input =
      "{\"algo\":\"construct\",\"n\":9}\r\n"
      "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[0,3],[1,4]]}\n"
      "{\"op\":\"stats\"}\n";
  const std::string expected = run_serve(input, 1, 1);
  TrickleStream trickle(input);
  eng::Engine engine;
  ASSERT_EQ(eng::serve_session(trickle, engine, {}), 0);
  EXPECT_EQ(trickle.output(), expected);
}

TEST(Serve, StripsTrailingCarriageReturns) {
  // CRLF clients (telnet, Windows pipes) must get the same bytes back as
  // LF clients — the '\r' is framing, not payload.
  const std::string lf =
      "{\"algo\":\"construct\",\"n\":9}\n{\"op\":\"stats\"}\n";
  const std::string crlf =
      "{\"algo\":\"construct\",\"n\":9}\r\n{\"op\":\"stats\"}\r\n";
  EXPECT_EQ(run_serve(lf, 1, 1), run_serve(crlf, 1, 1));
}

TEST(Serve, OversizedLinesAreRejectedInBandAndSkipped) {
  eng::Engine engine;
  eng::ServeConfig opts;
  opts.max_line_bytes = 64;
  const std::string big(1000, 'x');
  std::istringstream in(big + "\n{\"algo\":\"construct\",\"n\":9}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, opts), 0);
  // The oversized line consumed id 0 and was answered in-band; the next
  // line still parsed and ran as id 1.
  EXPECT_NE(out.str().find(
                "{\"id\":0,\"ok\":false,\"error\":\"parse: line exceeds"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("{\"id\":1,\"ok\":true,\"algo\":\"construct\""),
            std::string::npos)
      << out.str();
}

TEST(Serve, OversizedFinalLineWithoutNewlineIsStillReported) {
  eng::Engine engine;
  eng::ServeConfig opts;
  opts.max_line_bytes = 64;
  std::istringstream in(std::string(1000, 'y'));  // no trailing newline
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, opts), 0);
  EXPECT_NE(out.str().find("\"error\":\"parse: line exceeds"),
            std::string::npos)
      << out.str();
}

TEST(Serve, ClearVerbEmptiesTheStore) {
  eng::Engine engine;
  eng::ServeConfig opts;
  std::istringstream in(
      "{\"algo\":\"construct\",\"n\":9}\n{\"op\":\"clear\"}\n{\"op\":"
      "\"stats\"}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, opts), 0);
  EXPECT_NE(out.str().find("\"op\":\"clear\",\"ok\":true"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"size\":0,"), std::string::npos);
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(Serve, MetricsVerbReportsEveryRegisteredSeries) {
  eng::Engine engine;
  std::istringstream in(
      "{\"algo\":\"construct\",\"n\":9}\nnot json\n{\"op\":\"metrics\"}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, {}), 0);
  // The verb's line carries a JSON object with one key per series,
  // reflecting exactly the preceding lines of this session.
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"id\":2,\"op\":\"metrics\",\"ok\":true,"
                      "\"metrics\":{"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"ccov_cache_misses_total\":1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"ccov_serve_requests_total\":1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"ccov_serve_errors_total\":1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"ccov_serve_sessions_total\":1"), std::string::npos)
      << text;
}

TEST(Serve, SessionsFeedTheEngineMetricsRegistry) {
  eng::Engine engine;
  const std::string input =
      "{\"algo\":\"solve\",\"n\":7}\n"
      "{\"algo\":\"solve\",\"n\":7}\n"
      "garbage\n"
      "{\"op\":\"stats\"}\n";
  std::istringstream in1(input);
  std::ostringstream out1;
  ASSERT_EQ(eng::serve_loop(in1, out1, engine, {}), 0);
  std::istringstream in2(input);
  std::ostringstream out2;
  ASSERT_EQ(eng::serve_loop(in2, out2, engine, {}), 0);

  const eng::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.value("ccov_serve_sessions_total"), 2);
  EXPECT_EQ(metrics.value("ccov_serve_sessions_active"), 0);
  EXPECT_EQ(metrics.value("ccov_serve_requests_total"), 4);
  EXPECT_EQ(metrics.value("ccov_serve_verbs_total"), 2);
  EXPECT_EQ(metrics.value("ccov_serve_errors_total"), 2);
  // Every enqueued flush job completed, so the depth gauge reconciled
  // back to zero.
  EXPECT_EQ(metrics.value("ccov_serve_pipeline_depth"), 0);
  // n=7 solves actually searched; the second session hit the cache.
  EXPECT_GT(metrics.value("ccov_solver_nodes_total"), 0);
  EXPECT_EQ(metrics.value("ccov_cache_hits_total"), 3);
}

namespace {

/// The serve protocol answered one line at a time through Engine::run
/// and the public renderers, with no session, batching or cache probe:
/// the reference a session's bytes must equal.
std::string serve_line_by_line(const std::string& input) {
  eng::Engine engine;
  const eng::ServeConfig config;
  std::istringstream lines(input);
  std::string line;
  std::string out;
  std::uint64_t id = 0;
  while (std::getline(lines, line)) {
    eng::ServeCommand cmd;
    std::string error;
    if (!eng::parse_serve_line(line, &cmd, &error))
      out += eng::serve_error_line(id, "parse: " + error);
    else if (cmd.is_request())
      out += eng::serve_response_line(id, engine.run(cmd.req));
    else
      out += cmd.verb->run({id, engine, config});
    out += "\n";
    ++id;
  }
  return out;
}

}  // namespace

TEST(Serve, LoneCachedFlushesAreByteIdenticalAcrossModesAndToLineByLine) {
  // jobs=2, batch=4: lines 0-3 fill one batch; the cached line 4 is
  // flushed alone by the stats verb, and the cached line 13 alone by
  // EOF. Lines 6/7 and 9/10 repeat their predecessor byte for byte on
  // either side of the clear verb.
  const std::string input =
      R"({"algo":"construct","n":9})" "\n"
      R"({"algo":"greedy","n":9,"demand":[[0,3],[1,4],[2,7]]})" "\n"
      R"({"algo":"construct","n":11})" "\n"
      R"({"algo":"solve","n":7})" "\n"
      R"({"algo":"construct","n":9})" "\n"
      R"({"op":"stats"})" "\n"
      R"({"algo":"solve","n":7})" "\n"
      R"({"algo":"solve","n":7})" "\n"
      R"({"op":"clear"})" "\n"
      R"({"algo":"solve","n":7})" "\n"
      R"({"algo":"solve","n":7})" "\n"
      R"({"algo":"construct","n":9})" "\n"
      R"({"algo":"greedy","n":9,"demand":[[2,5],[3,6],[0,4]]})" "\n"
      R"({"algo":"construct","n":9})" "\n";

  const std::string reference = serve_line_by_line(input);
  EXPECT_EQ(run_serve(input, 2, 4), reference);
  EXPECT_EQ(run_serve(input, 1, 1), reference);

  // The two lone flushes were answered from the cache.
  EXPECT_NE(reference.find(R"({"id":4,"ok":true,"algo":"construct","n":9,)"
                           R"("found":true,"exhausted":false,"nodes":0,)"
                           R"("cache_hit":true)"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find(R"({"id":13,"ok":true,"algo":"construct","n":9,)"
                           R"("found":true,"exhausted":false,"nodes":0,)"
                           R"("cache_hit":true)"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find(R"({"id":5,"op":"stats","ok":true,"size":4,)"),
            std::string::npos)
      << reference;
}

TEST(Serve, ExpiredCachedRequestFlushedAloneIsShedBeforeTheCacheProbe) {
  const std::string shed_tail =
      R"("ok":true,"algo":"construct","n":9,"found":false,)"
      R"("exhausted":false,"nodes":0,"cache_hit":false,"shed":true})";

  // A batching session holds the lone request until EOF, 100 ms after
  // its 20 ms deadline was fixed: the EOF flush must shed it even though
  // the store would answer it.
  {
    eng::Engine engine;
    ASSERT_TRUE(engine.run(make_req("construct", 9)).ok);
    eng::ServeConfig config;
    config.jobs = 2;
    config.batch = 4;
    TrickleStream io(R"({"algo":"construct","n":9,"deadline_ms":20})" "\n",
                     100);
    ASSERT_EQ(eng::serve_session(io, engine, config), 0);
    EXPECT_EQ(io.output(), R"({"id":0,)" + shed_tail + "\n");
    EXPECT_EQ(engine.cache().stats().hits, 0u);
    EXPECT_EQ(engine.metrics().value("ccov_requests_shed_total"), 1);
  }

  // A one-line-batch pipelined session: the cached request waits behind
  // a solve that runs to its 200 ms deadline, then is flushed alone.
  {
    eng::Engine engine;
    ASSERT_TRUE(engine.run(make_req("construct", 9)).ok);
    eng::ServeConfig config;
    config.jobs = 2;
    config.batch = 1;
    std::istringstream in(
        R"({"algo":"solve","n":10,"budget":13,"deadline_ms":200})" "\n"
        R"({"algo":"construct","n":9,"deadline_ms":20})" "\n");
    std::ostringstream out;
    ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
    std::istringstream lines(out.str());
    std::string first, second;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    EXPECT_NE(first.find(R"("timed_out":true)"), std::string::npos) << first;
    EXPECT_EQ(second, R"({"id":1,)" + shed_tail);
    EXPECT_EQ(engine.cache().stats().hits, 0u);
    EXPECT_EQ(engine.metrics().value("ccov_requests_shed_total"), 1);
  }
}
