#pragma once
/// \file request.hpp
/// The engine's wire types. Every cover-producing algorithm in the library
/// — constructions, exact solvers, greedy heuristics, the classical
/// baselines and the lambda extension — is invoked through one
/// CoverRequest and answers with one CoverResponse, so batching, caching
/// and parallelism are implemented once in the engine layer instead of
/// per-algorithm.

#include <cstdint>
#include <string>
#include <vector>

#include "ccov/covering/cover.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/graph/graph.hpp"

namespace ccov::engine {

/// One unit of work: "produce a cover of this instance with this
/// algorithm". Plain data; hashable/canonicalizable by CoverCache.
struct CoverRequest {
  /// Registry name of the algorithm ("construct", "solve", ...).
  std::string algorithm;
  /// Ring / instance size (n >= 3).
  std::uint32_t n = 0;
  /// Cycle budget for search algorithms; 0 selects the algorithm default
  /// (rho(n) for the exact solver).
  std::uint64_t budget = 0;
  /// Demand multiplicity for the lambda extension (lambda*K_n).
  std::uint32_t lambda = 1;
  /// Worker count for parallel algorithms; 0 selects hardware concurrency,
  /// and larger counts are clamped to it (the answer does not depend on
  /// the count, so a wire request cannot make a server spawn thousands
  /// of threads per miss).
  std::size_t threads = 0;
  /// Branch-and-bound options, forwarded to solve/solve-parallel.
  covering::SolverOptions solver;
  /// Validate the produced cover against the request's demand.
  bool validate = true;
  /// Explicit demand chords (normalized internally); empty means the
  /// all-to-all demand K_n. Only demand-aware algorithms ("greedy") accept
  /// a non-empty demand. A chord listed twice is demanded once: the
  /// answer and its validation treat the demand as a set (the cache key
  /// still sees the list as given).
  std::vector<graph::Edge> demand;
  /// Wall-clock budget in milliseconds; 0 means none. A wire field (the
  /// JSONL protocol's "deadline_ms"), but NOT part of the canonical cache
  /// key — it bounds this run, not the problem. The engine resolves it
  /// into `deadline` at execution time when the serve layer has not
  /// already fixed one.
  std::uint64_t deadline_ms = 0;
  /// Absolute deadline, fixed by the serve layer at the moment the
  /// request was *accepted* — queue wait counts against it, which is
  /// what makes expired-while-queued load shedding possible.
  util::Deadline deadline;
  /// Server-wide cancellation token (SIGINT/SIGTERM); may be null.
  const util::CancelToken* cancel = nullptr;
};

/// Result of running (or cache-resolving) one CoverRequest.
struct CoverResponse {
  bool ok = false;           ///< the algorithm ran to completion
  std::string error;         ///< failure reason when !ok
  std::string algorithm;     ///< echo of the request
  std::uint32_t n = 0;       ///< echo of the request
  covering::RingCover cover; ///< the produced cover (when ok && found)
  bool found = false;        ///< a cover was produced within the budget
  bool exhausted = false;    ///< search space fully explored (solvers)
  std::uint64_t nodes = 0;   ///< branch nodes visited; 0 on cache hits
  bool validated = false;    ///< validation was requested and performed
  bool valid = false;        ///< validation verdict (when validated)
  bool cache_hit = false;    ///< served from the CoverCache
  bool timed_out = false;    ///< deadline expired (or shutdown cancelled)
                             ///< before the search settled; never cached
  bool degraded = false;     ///< timed-out exact solve answered with the
                             ///< greedy fallback cover; never cached
  bool shed = false;         ///< deadline expired while queued; answered
                             ///< without solving (serve layer)
  double elapsed_ms = 0.0;   ///< wall time inside the engine
};

/// Deterministic one-line rendering of a response: every reproducible
/// field including the cycle list, but neither timing nor cache metadata.
/// Two runs of the same deterministic algorithm produce byte-identical
/// rows, which is what the batch-determinism tests and the sweep CSV
/// comparisons rely on.
std::string deterministic_row(const CoverResponse& resp);

/// Build a demand Graph on `n` vertices from explicit chords: each edge
/// normalized u <= v, repeated chords collapsed to one (a demand is a set
/// of chords, as the greedy that serves it treats it).
graph::Graph demand_graph(std::uint32_t n,
                          const std::vector<graph::Edge>& demand);

}  // namespace ccov::engine
