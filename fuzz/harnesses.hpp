#pragma once
/// \file harnesses.hpp
/// One entry point per untrusted parse surface, each with the libFuzzer
/// signature. Every function must be deterministic, side-effect-free
/// beyond its own stack/heap, and total: any byte string returns 0 (the
/// only interesting outcomes are sanitizer aborts, crashes and hangs).
///
/// Build shapes (see CMakeLists.txt here):
///  - Clang + CCOV_USE_LIBFUZZER: fuzzer_entry.cpp forwards
///    LLVMFuzzerTestOneInput to the one harness named by the
///    CCOV_FUZZ_TARGET compile definition; -fsanitize=fuzzer drives it.
///  - anywhere else: driver_main.cpp replays files/directories named on
///    the command line through the same harness, which is exactly what
///    the tests/fuzz_corpus regression tests need — no fuzzer toolchain
///    required to re-check a pinned crash input.

#include <cstddef>
#include <cstdint>

/// util/json.hpp Reader — the JSONL serve protocol's parser.
int ccov_fuzz_json(const std::uint8_t* data, std::size_t size);

/// engine snapshot load (store.cpp) — the --cache-file warm-start path —
/// differential against the per-field istream decoder it replaced
/// (tests/reference_store.hpp).
int ccov_fuzz_snapshot(const std::uint8_t* data, std::size_t size);

/// HTTP/1.1 request-head parser (http.hpp find_head_end + parse_head).
int ccov_fuzz_http_head(const std::uint8_t* data, std::size_t size);

/// serve.hpp LineReader — newline framing over a ServeStream.
int ccov_fuzz_line_reader(const std::uint8_t* data, std::size_t size);

/// net.hpp parse_endpoint — the --listen/--http "host:port" spec.
int ccov_fuzz_endpoint(const std::uint8_t* data, std::size_t size);

/// failpoint::validate — the CCOV_FAILPOINTS env spec parser.
int ccov_fuzz_failpoint(const std::uint8_t* data, std::size_t size);

/// cache.hpp canonical_request_key — differential against the exhaustive
/// D_n scan in tests/reference_canonical_key.hpp. Unlike the parse
/// surfaces above it aborts on a mismatch, not only on a crash.
int ccov_fuzz_canonical_key(const std::uint8_t* data, std::size_t size);

/// covering/cover.hpp validate_cover and validate_cover_against —
/// differential against the std::map validator in
/// tests/reference_validate.hpp; aborts on any report mismatch.
int ccov_fuzz_validate_cover(const std::uint8_t* data, std::size_t size);

/// covering/greedy.hpp greedy_cover_demand — differential against the
/// ChordBitset greedy in tests/reference_greedy.hpp; aborts on any cover
/// or exception mismatch.
int ccov_fuzz_greedy_cover(const std::uint8_t* data, std::size_t size);

/// covering/solver.hpp solve_with_budget — differential against the
/// search in tests/reference_solver.hpp, which visits every child the
/// library decides in its parent; aborts on any result mismatch.
int ccov_fuzz_solver(const std::uint8_t* data, std::size_t size);

/// engine/serve.hpp serve_response_line — differential against the
/// per-value JsonWriter renderer in tests/reference_render.hpp; aborts
/// on any byte mismatch.
int ccov_fuzz_render(const std::uint8_t* data, std::size_t size);

/// engine/serve.hpp parse_serve_line — differential against the DOM
/// parser in tests/reference_parse.hpp; aborts on any difference in the
/// return value, error text, verb or request.
int ccov_fuzz_serve_line(const std::uint8_t* data, std::size_t size);
