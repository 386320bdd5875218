#include "ccov/engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string_view>
#include <unordered_set>

#include "ccov/util/thread_pool.hpp"

namespace ccov::engine {

BatchRunner::BatchRunner(Engine& engine, BatchOptions opts)
    : engine_(engine), opts_(opts) {}

std::vector<CoverResponse> BatchRunner::run(
    const std::vector<CoverRequest>& requests) {
  std::vector<CoverResponse> results(requests.size());
  // One key per request, shared by the grouping below and Engine::run.
  std::vector<CanonicalKey> keys;
  keys.reserve(requests.size());
  for (const CoverRequest& req : requests)
    keys.push_back(canonical_request_key(req));
  const auto run_one = [&](std::size_t i) {
    try {
      results[i] = engine_.run(requests[i], keys[i]);
    } catch (const std::exception& e) {
      // Engine::run never throws by contract; belt-and-braces so one bad
      // request can never take down a whole batch.
      results[i].algorithm = requests[i].algorithm;
      results[i].n = requests[i].n;
      results[i].error = e.what();
    }
  };
  // A pool that cannot start its threads leaves the batch to run inline,
  // as with jobs == 1: answers do not depend on the worker count, and
  // Engine::pool() tries again on the next batch.
  util::ThreadPool* pool = nullptr;
  if (opts_.jobs != 1 && requests.size() > 1) {
    try {
      pool = &engine_.pool();
    } catch (const std::exception&) {  // run inline below
    }
  }
  if (pool == nullptr) {
    for (std::size_t i = 0; i < requests.size(); ++i) run_one(i);
    return results;
  }

  // Fan out only the first request of each canonical-key group; repeats
  // run afterwards, in input order, against the then-warm cache. Serially
  // they would have hit the cache too (nodes = 0, remapped frame), so the
  // output stays byte-identical across every --jobs value even when a
  // batch carries duplicate or D_n-equivalent requests.
  std::vector<std::size_t> primaries, repeats;
  std::unordered_set<std::string_view> seen;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (seen.insert(keys[i].key).second) {
      primaries.push_back(i);
    } else {
      repeats.push_back(i);
    }
  }

  // Fan the primaries across the engine's shared pool: `jobs` pulling
  // workers bound the batch's concurrency even when the pool is larger,
  // and the TaskGroup token keeps this batch isolated from any other
  // batch running on the same pool.
  const std::size_t jobs = opts_.jobs == 0 ? pool->size() : opts_.jobs;
  const std::size_t workers = std::min(jobs, primaries.size());
  std::atomic<std::size_t> next{0};
  util::TaskGroup group;
  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit(group, [&] {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < primaries.size();
           k = next.fetch_add(1, std::memory_order_relaxed))
        run_one(primaries[k]);
    });
  }
  group.wait();
  for (const std::size_t i : repeats) run_one(i);
  return results;
}

}  // namespace ccov::engine
