// Experiment S1 — microbenchmarks (google-benchmark).
//
// Throughput of the library's kernels: construction, validation, DRC
// checking, routing, the greedy baselines and protection simulation. Not
// a paper table; included so performance regressions in the combinatorial
// core are visible.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <vector>

#include "ccov/baselines/triple_cover.hpp"
#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/drc.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/engine/cache.hpp"
#include "ccov/graph/graph.hpp"
#include "ccov/protection/simulator.hpp"
#include "ccov/util/prng.hpp"
#include "ccov/wdm/network.hpp"

using namespace ccov;

static void BM_ConstructOdd(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::construct_odd_cover(n));
  state.SetComplexityN(n);
}
BENCHMARK(BM_ConstructOdd)->Arg(21)->Arg(51)->Arg(101)->Arg(201)->Complexity();

static void BM_ConstructEven(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::construct_even_cover(n));
}
BENCHMARK(BM_ConstructEven)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

static void BM_ValidateCover(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto cover = covering::build_optimal_cover(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::validate_cover(cover));
}
BENCHMARK(BM_ValidateCover)->Arg(21)->Arg(51)->Arg(101)->Arg(151);

// An explicit demand as the serve path answers it: `chords` distinct
// random chords on a ring of size n.
static graph::Graph random_demand(std::uint32_t n, std::size_t chords) {
  util::Xoshiro256 rng(64);
  std::set<std::pair<std::uint32_t, std::uint32_t>> picked;
  graph::Graph demand(n);
  while (picked.size() < chords) {
    const auto u = static_cast<std::uint32_t>(rng.below(n));
    const auto v = static_cast<std::uint32_t>(rng.below(n));
    if (u < v && picked.insert({u, v}).second) demand.add_edge(u, v);
  }
  return demand;
}

// Validating the greedy's cover of 128 random chords on n = 64.
static void BM_ValidateCoverAgainst(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto demand =
      random_demand(n, static_cast<std::size_t>(state.range(1)));
  const auto cover = covering::greedy_cover_demand(n, demand);
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::validate_cover_against(cover, demand));
}
BENCHMARK(BM_ValidateCoverAgainst)->Args({64, 128});

static void BM_DrcCheck(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ring::Ring r(n);
  const covering::Cycle c{0, static_cast<covering::Vertex>(n / 3),
                          static_cast<covering::Vertex>(n / 2),
                          static_cast<covering::Vertex>(2 * n / 3)};
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::satisfies_drc(r, c));
}
BENCHMARK(BM_DrcCheck)->Arg(16)->Arg(256)->Arg(4096);

static void BM_DrcRoute(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const ring::Ring r(n);
  const covering::Cycle c{0, static_cast<covering::Vertex>(n / 4),
                          static_cast<covering::Vertex>(n / 2),
                          static_cast<covering::Vertex>(3 * n / 4)};
  for (auto _ : state) benchmark::DoNotOptimize(covering::drc_route(r, c));
}
BENCHMARK(BM_DrcRoute)->Arg(64)->Arg(1024);

static void BM_GreedyCover(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(covering::greedy_cover(n));
  // items/s = chords covered per second (the greedy's unit of work).
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * (n - 1) / 2);
}
BENCHMARK(BM_GreedyCover)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(58)
    ->Arg(64)
    ->Arg(128)
    ->Arg(150);

// The greedy over the demand BM_ValidateCoverAgainst validates.
static void BM_GreedyCoverDemand(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto demand =
      random_demand(n, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(covering::greedy_cover_demand(n, demand));
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_GreedyCoverDemand)->Args({64, 128});

static void BM_TripleCover(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(baselines::greedy_triple_cover(n));
}
BENCHMARK(BM_TripleCover)->Arg(60);

// The exact-search kernels. items/s reports branch nodes per second, so a
// regression that re-introduces per-node allocation or rescans shows up as
// a nodes/s collapse even if the node counts stay pinned. These are
// registered dynamically in main(): the heavy n=12 searches (~40M nodes)
// join only when --quick is absent, giving the CI smoke a fast subset.

static void BM_SolveMinimum(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  // solve_minimum does not expose node counts; its dominant cost is the
  // final infeasibility proof one below the construction size, whose
  // deterministic node count we measure once per argument (the benchmark
  // function itself reruns while the framework calibrates iterations).
  static std::map<std::uint32_t, std::uint64_t> probe_cache;
  auto it = probe_cache.find(n);
  if (it == probe_cache.end()) {
    const std::uint64_t probe_budget =
        covering::build_optimal_cover(n).size() - 1;
    it = probe_cache
             .emplace(n, covering::solve_with_budget(n, probe_budget).nodes)
             .first;
  }
  const std::uint64_t probe_nodes = it->second;
  for (auto _ : state) {
    benchmark::DoNotOptimize(covering::solve_minimum(n));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probe_nodes));
}

static void BM_SolveBudgetParallel(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  // Full infeasibility proof at one below rho(n).
  const std::uint64_t budget = covering::rho(n) - 1;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const auto res = covering::solve_with_budget_parallel(n, budget);
    benchmark::DoNotOptimize(res);
    nodes += res.nodes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(nodes));
}

static void register_solver_benchmarks(bool quick) {
  auto* solve_min =
      benchmark::RegisterBenchmark("BM_SolveMinimum", BM_SolveMinimum)
          ->Unit(benchmark::kMillisecond)
          ->Arg(7)
          ->Arg(8);
  auto* solve_par = benchmark::RegisterBenchmark("BM_SolveBudgetParallel",
                                                 BM_SolveBudgetParallel)
                        ->Unit(benchmark::kMillisecond)
                        ->UseRealTime()  // work happens on pool threads
                        ->Arg(8);
  if (!quick) {
    solve_min->Arg(12);
    solve_par->Arg(12);
  }
}

// Concurrent cover-cache lookups: the serve loop's hot path. The range
// argument is the shard count, so the run compares a single global lock
// (shards = 1) against the lock-striped layout under the same thread
// count. items/s = lookups per second across all threads.
static void BM_CoverCacheLookup(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  static std::mutex init_mu;
  static std::map<std::size_t, std::unique_ptr<engine::CoverCache>> caches;
  static std::vector<engine::CanonicalKey> keys;
  {
    // All benchmark threads enter concurrently; whichever arrives first
    // builds the cache for this shard count.
    std::lock_guard lk(init_mu);
    if (!caches.count(shards)) {
      // Per-shard capacity (256 / 8 = 32) holds all 32 keys even under a
      // fully skewed hash, so every lookup is a hit on every platform.
      auto cache = std::make_unique<engine::CoverCache>(256, shards);
      if (keys.empty()) {
        for (std::uint32_t n = 3; n <= 34; ++n) {
          engine::CoverRequest req;
          req.algorithm = "construct";
          req.n = n;
          keys.push_back(engine::canonical_request_key(req));
        }
      }
      for (std::size_t k = 0; k < keys.size(); ++k) {
        engine::CoverResponse resp;
        resp.ok = true;
        resp.found = true;
        resp.algorithm = "construct";
        resp.cover = covering::build_optimal_cover(
            static_cast<std::uint32_t>(3 + k));
        resp.n = resp.cover.n;
        cache->insert(keys[k], resp);
      }
      caches[shards] = std::move(cache);
    }
  }
  engine::CoverCache& cache = *caches.at(shards);
  std::size_t i = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(keys[i % keys.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoverCacheLookup)->Arg(1)->Arg(8)->Threads(1)->Threads(4);

// Canonical cache key of an explicit demand: the per-request cost every
// demand request pays before its cache probe. Random chords (u != v) on
// C_n, or with symmetric = 1 the n ring edges {i, i+1}: every chord is a
// shortest one and every element of D_n reaches the least image, so all
// 2n candidates are built — the worst case for ties. items/s = keys/s.
static void BM_CanonicalKey(benchmark::State& state) {
  const auto chords = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  engine::CoverRequest req;
  req.algorithm = "greedy";
  req.n = n;
  if (state.range(2) != 0) {
    for (std::uint32_t i = 0; i < n; ++i)
      req.demand.push_back({i, (i + 1) % n});
  } else {
    util::Xoshiro256 rng(chords * 1000 + n);
    while (req.demand.size() < chords) {
      const auto u = static_cast<std::uint32_t>(rng.below(n));
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      if (u != v) req.demand.push_back({u, v});
    }
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::canonical_request_key(req));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CanonicalKey)
    ->ArgNames({"chords", "n", "symmetric"})
    ->ArgsProduct({{8, 24, 64, 128}, {30, 64, 150}, {0}})
    ->Args({64, 64, 1});

static void BM_LoopbackSimulation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto inst = wdm::Instance::all_to_all(n);
  const wdm::WdmRingNetwork net(n, covering::build_optimal_cover(n), inst);
  std::uint32_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protection::simulate_loopback(net, {e++ % n}));
  }
}
BENCHMARK(BM_LoopbackSimulation)->Arg(15)->Arg(31)->Arg(63);

static void BM_RhoFormula(benchmark::State& state) {
  std::uint32_t n = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(covering::rho(n));
    n = n == 1'000'000 ? 3 : n + 1;
  }
}
BENCHMARK(BM_RhoFormula);

// Custom main so CI smoke runs can pass `--quick`: it caps measurement time
// far below the default so the full suite finishes in seconds. The value's
// spelling is version-dependent (see bench/CMakeLists.txt).
#ifndef CCOV_QUICK_MIN_TIME
#define CCOV_QUICK_MIN_TIME "0.001s"
#endif

int main(int argc, char** argv) {
  std::vector<char*> args;
  static char quick_min_time[] = "--benchmark_min_time=" CCOV_QUICK_MIN_TIME;
  bool quick = false;
  bool has_min_time = false;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      continue;
    }
    if (arg.starts_with("--benchmark_min_time")) has_min_time = true;
    args.push_back(argv[i]);
  }
  if (quick && !has_min_time) args.push_back(quick_min_time);
  register_solver_benchmarks(quick);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
