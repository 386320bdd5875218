#pragma once
/// \file workload.hpp
/// The benchmark's workloads: seeded request scripts for `ccov serve`,
/// the server settings each one runs under, and the in-process
/// reference every served response is checked against.
///
///   interactive  one request in flight over a pre-warmed hot set of
///                identity-frame K_n requests (every request a hit)
///   batch        a window of distinct-key misses through the
///                --jobs/--batch pipeline path
///   churn        one request in flight over a store smaller than the
///                key set: hits, D_n-image remapped hits, misses,
///                evictions and control verbs
///
/// Everything is a pure function of (workload, seed): the same seed
/// yields byte-identical lines.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A workload's request script and the server configuration it needs.
struct Script {
  std::string workload;
  /// Requests executed into the store before the snapshot the server
  /// warm-starts from is saved (untimed). Empty: the server starts from
  /// an empty store and gets no --cache-file.
  std::vector<std::string> warm;
  /// The timed stream, one JSONL request or control verb per entry
  /// (no trailing newline).
  std::vector<std::string> lines;
  std::size_t frame_lines = 1;    ///< lines per write (and per HTTP POST)
  std::size_t window_frames = 1;  ///< frames in flight (closed loop)
  std::size_t jobs = 1;           ///< server --jobs
  std::size_t batch = 1;          ///< server --batch
  std::size_t cache_capacity = 0; ///< server --cache-capacity; 0 = default
  /// churn bookkeeping for the self-tests: the number of demand-key
  /// request lines, and each line sent as a non-identity D_n image, as
  /// (line index, the line it is an image of).
  std::size_t demand_lines = 0;
  std::vector<std::pair<std::size_t, std::string>> images;
};

/// Share of churn's demand-key lines sent as a rotated/reflected image.
inline constexpr double kChurnImageShare = 0.3;

/// The names make_script accepts, in reporting order.
const std::vector<std::string>& workload_names();

/// Build the script for `workload` from `seed`. Throws
/// std::invalid_argument on an unknown workload.
Script make_script(const std::string& workload, std::uint64_t seed);

/// Node count the exact solver needs on K_n (odd n in 5..21), or 0 when
/// no golden value is pinned for n.
std::uint64_t golden_solve_nodes(std::uint32_t n);

/// Cache capacity `ccov serve` uses for this script: its
/// --cache-capacity (default 16384) raised to twice the snapshot's entry
/// count, exactly as the server sizes a warm start.
std::size_t server_cache_capacity(const Script& s,
                                  std::size_t snapshot_entries);

/// Run the warm requests on a private engine and save its store to
/// `path`. Returns the number of entries written.
std::size_t write_snapshot(const Script& s, const std::string& path);

/// The line every session starts with; its answer marks the end of
/// server set-up.
inline constexpr std::string_view kProbeLine = R"({"op":"stats"})";

/// Split a response line `{"id":N,...}` into N and the rest. False when
/// the line does not start with an id.
bool split_id(std::string_view line, std::uint64_t* id,
              std::string_view* tail);

/// The part of a response tail that must match across transports: the
/// tail itself, except that a `metrics` verb keeps only the engine
/// series (cache, requests, solver) — the serve-session series count
/// sessions and bytes, which legitimately differ per transport.
std::string comparable_tail(std::string_view tail);

/// Expected answers for a script: a fresh engine warm-started from the
/// same snapshot, fed the probe and then every line through Engine::run
/// and the serve renderers.
struct Reference {
  std::string probe;               ///< comparable tail of the probe answer
  std::vector<std::string> tails;  ///< comparable tail per stream line
  /// 1 where a solve's node count differs from golden_solve_nodes.
  std::vector<char> golden_bad;
  std::size_t golden_checked = 0;  ///< solve lines checked against goldens
  std::uint64_t hits = 0, misses = 0, evictions = 0;  ///< final counters
  /// Non-empty when the workload's own invariant failed (interactive:
  /// a miss; batch: a hit) — the benchmark is then not measuring what
  /// it claims to.
  std::string error;
};

Reference build_reference(const Script& s, const std::string& snapshot);

}  // namespace perfbench
