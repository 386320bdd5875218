#pragma once
/// \file churn_store.hpp
/// A cover store shaped like the warm start of perfbench's `churn`
/// workload: many small greedy covers of explicit demands beside the
/// large construct covers of K_n for n = 81..150, validated and not. At
/// 500 demands it is 640 entries, about 250k cycles and 5 MB of
/// snapshot. The snapshot tests, the allocation-count test and
/// bench_micro's BM_SnapshotLoad share it.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/request.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/util/prng.hpp"

namespace ccov::engine::fixtures {

/// `demands` greedy requests on n = 28..32 with 20..28 random chords
/// each (repeats and reversed chords left in), then the 140 construct
/// requests of n = 81..150.
inline std::vector<CoverRequest> churn_store_requests(std::size_t demands,
                                                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<CoverRequest> out;
  for (std::size_t i = 0; i < demands; ++i) {
    CoverRequest req;
    req.algorithm = "greedy";
    req.n = static_cast<std::uint32_t>(28 + rng.below(5));
    const std::uint64_t chords = 20 + rng.below(9);
    while (req.demand.size() < chords) {
      const auto u = static_cast<std::uint32_t>(rng.below(req.n));
      const auto v = static_cast<std::uint32_t>(rng.below(req.n));
      if (u != v) req.demand.push_back({u, v});
    }
    out.push_back(std::move(req));
  }
  for (std::uint32_t n = 81; n <= 150; ++n) {
    for (const bool validate : {true, false}) {
      CoverRequest req;
      req.algorithm = "construct";
      req.n = n;
      req.validate = validate;
      out.push_back(std::move(req));
    }
  }
  return out;
}

/// The snapshot bytes of a store filled by running those requests.
inline std::string churn_store_bytes(std::size_t demands = 500,
                                     std::uint64_t seed = 5) {
  const auto requests = churn_store_requests(demands, seed);
  Engine engine(EngineOptions{.cache_capacity = 2 * requests.size()});
  for (const CoverRequest& req : requests) (void)engine.run(req);
  std::ostringstream os;
  save_snapshot(os, engine.cache());
  return os.str();
}

}  // namespace ccov::engine::fixtures
