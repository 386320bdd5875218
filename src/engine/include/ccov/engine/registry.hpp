#pragma once
/// \file registry.hpp
/// Name -> algorithm dispatch. The strategies form a closed set, so they
/// sit in one name-sorted constant table in registry.cpp and are then
/// reachable from the CLI (`ccov run --algo NAME`), the sweep runner,
/// the bench tables and the tests without any per-call-site dispatch
/// code. A new strategy is a new table entry (see src/engine/README.md);
/// nothing registers at run time, so a lookup takes no lock.

#include <string>
#include <string_view>
#include <vector>

#include "ccov/engine/request.hpp"

namespace ccov::engine {

/// What an algorithm hands back to the engine; the engine wraps it into a
/// CoverResponse (timing, validation, cache metadata).
struct AlgorithmOutcome {
  covering::RingCover cover;
  bool found = true;       ///< false when a search exhausted its budget
  bool exhausted = false;  ///< search space fully explored (solvers)
  std::uint64_t nodes = 0; ///< branch nodes visited (0 for constructions)
  bool timed_out = false;  ///< the request's deadline expired mid-search
  bool cancelled = false;  ///< the server's cancel token fired mid-search
};

/// A named cover-producing strategy. Every one is a deterministic
/// function of the canonical request, so the engine may serve it from
/// the CoverCache.
struct Algorithm {
  std::string_view name;
  std::string_view description;
  /// Produce a cover. May throw std::exception to signal an unsupported
  /// request (the engine converts it into an error response).
  AlgorithmOutcome (*run)(const CoverRequest&);
  /// Optional custom validator (e.g. lambda*K_n demands). When null the
  /// engine validates against the request's demand (K_n by default).
  bool (*validate)(const CoverRequest&, const covering::RingCover&);
};

/// Read-only view of the built-in table (construct, solve,
/// solve-parallel, greedy, emz, c4, triple, lambda).
class AlgorithmRegistry {
 public:
  /// nullptr when the name is unknown. Entries live for the whole
  /// program.
  const Algorithm* find(std::string_view name) const;

  /// Names in sorted order.
  std::vector<std::string> names() const;

  std::size_t size() const;

  static const AlgorithmRegistry& global();
};

}  // namespace ccov::engine
