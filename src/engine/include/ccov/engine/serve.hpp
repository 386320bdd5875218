#pragma once
/// \file serve.hpp
/// The `ccov serve` protocol: JSONL requests in, JSONL responses out,
/// one output line per input line, in input order. Compute requests are
/// flat JSON objects ({"algo":"solve","n":8,...}); control verbs are
/// {"op":"stats"|"save"|"clear"|"metrics"} and are dispatched through
/// ServeVerbRegistry, a fixed name-sorted table (op string -> handler)
/// like AlgorithmRegistry. See src/engine/README.md for the full
/// protocol. The parser and renderers are exposed so tests can drive
/// them without a process boundary.
///
/// The protocol loop itself is parameterized over a transport: a
/// ServeStream is any source/sink of newline-framed bytes —
/// serve_loop wires one to stdin/stdout, net.hpp's SocketStream wires
/// one to a TCP connection, and http.hpp frames one inside an HTTP
/// request/response pair. Every transport shares the exact same
/// serve_session, so socket and HTTP responses are byte-identical to
/// stdio responses for the same request stream. Every front end hands
/// its sessions one ServeConfig; the listener, HTTP and shm settings
/// belong to the front ends that use them (net.hpp, http.hpp, shm.hpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/request.hpp"

namespace ccov::engine {

/// Transport seam for the serve loop: a bidirectional byte stream. The
/// session reads newline-framed requests through read_some and writes
/// response lines through write_all. A pipelining session (jobs > 1 ||
/// batch > 1) reads and writes from two threads, so implementations must
/// tolerate one concurrent reader plus one concurrent writer.
class ServeStream {
 public:
  virtual ~ServeStream() = default;

  /// Read up to `n` bytes into `buf`. Returns the number of bytes read
  /// (> 0), 0 on end-of-stream (EOF, peer disconnect, or server
  /// shutdown), or -1 on a transport error. Must retry EINTR internally.
  virtual std::ptrdiff_t read_some(char* buf, std::size_t n) = 0;

  /// Write all `n` bytes. Returns false when the peer is gone (EPIPE,
  /// reset) or the sink fails — the session then tears down quietly.
  virtual bool write_all(const char* data, std::size_t n) = 0;

  /// Flush buffered output (stdio transports); sockets need nothing.
  virtual bool flush() { return true; }
};

/// The settings serve_session reads — the same on every transport
/// (stdio, `--listen`, `--http`, `--shm`).
struct ServeConfig {
  /// Worker threads per flushed batch (BatchRunner semantics: 0 =
  /// hardware concurrency, 1 = inline).
  std::size_t jobs = 1;
  /// Consecutive compute requests buffered before a flush. 1 answers
  /// every line immediately (interactive); larger batches let --jobs
  /// overlap independent requests. Control verbs and EOF always flush.
  std::size_t batch = 1;
  /// Snapshot path for the `save` control verb and the save-on-exit in
  /// the CLI wrapper; empty disables `save`.
  std::string cache_file;
  /// Longest accepted input line in bytes (0 = unlimited). A longer line
  /// is answered in-band with ok:false and discarded as it streams in —
  /// the session never buffers more than this much of one line.
  std::size_t max_line_bytes = 1 << 20;
  /// Wall-clock deadline (ms) applied to requests that carry no
  /// deadline_ms of their own; 0 = none (`--default-deadline-ms`). The
  /// absolute deadline is fixed when the request is *accepted*, so time
  /// spent queued behind a batch counts against it.
  std::uint64_t default_deadline_ms = 0;
  /// Server-wide cancellation token, cancelled by the SIGINT/SIGTERM
  /// handler. Sessions check it between lines and thread it into every
  /// request, so shutdown latency is bounded by the solver's ~4k-node
  /// poll interval instead of the deepest in-flight search. May be null.
  const util::CancelToken* cancel = nullptr;
};

// ---------------------------------------------------------------------------
// Control-verb registry
// ---------------------------------------------------------------------------

/// Everything a control-verb handler may touch. Handlers run *after* the
/// preceding requests flushed (on the pipeline worker when jobs > 1 ||
/// batch > 1), so whatever they observe (cache stats, metrics) reflects
/// exactly the requests that preceded them in the stream.
struct ServeVerbContext {
  std::uint64_t id = 0;  ///< response id of the verb's input line
  Engine& engine;
  const ServeConfig& config;
};

/// A named control verb: {"op":"<name>"} -> one rendered response line
/// (no trailing newline). Handlers must not throw.
struct ServeVerb {
  std::string_view name;
  std::string_view description;
  std::string (*run)(const ServeVerbContext&);
};

/// Read-only view of the built-in verb table (clear, metrics, save,
/// stats), the counterpart of AlgorithmRegistry.
class ServeVerbRegistry {
 public:
  /// nullptr when the name is unknown. Entries live for the whole
  /// program.
  const ServeVerb* find(std::string_view name) const;

  /// Names in sorted order — also the list parse errors cite.
  std::vector<std::string> names() const;

  std::size_t size() const;

  static const ServeVerbRegistry& global();
};

/// One parsed input line: either a cover request (verb == nullptr) or a
/// resolved control verb.
struct ServeCommand {
  const ServeVerb* verb = nullptr;
  CoverRequest req;  ///< populated when is_request()
  bool is_request() const { return verb == nullptr; }
};

/// Line framing over a ServeStream: newline-delimited, CRLF-tolerant (a
/// single trailing '\r' is stripped), with a hard per-line byte limit
/// enforced *while streaming* — an oversized line is discarded as it
/// arrives instead of being buffered without bound, and reported as
/// kTooLong so the session can answer in-band. This is the framing layer
/// every serve transport's input passes through; it is exposed (and
/// fuzzed — see fuzz/) because it sits directly on untrusted bytes.
class LineReader {
 public:
  /// \p max_line longest accepted line in bytes (0 = unlimited).
  LineReader(ServeStream& io, std::size_t max_line);

  enum class Result { kLine, kTooLong, kEof };

  /// Produce the next line (newline stripped). A partial final line with
  /// no trailing newline is still a line, as with std::getline; the
  /// following call reports kEof.
  Result next(std::string* line);

 private:
  ServeStream& io_;
  std::size_t max_;
  char buf_[4096];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Parse one JSONL line against the verb table. Returns false (and sets
/// *error) on malformed JSON, unknown keys, out-of-domain values, or an
/// unknown op (the error lists the valid ops); never throws.
///
/// A compute request in its plain shape (known fields only, unescaped
/// strings, non-negative integers up to 2^63-1, whitespace drawn from
/// space, tab, CR and LF) is read in one forward pass straight into
/// cmd->req, with no JSON DOM. Any other line — a verb, an escape, an
/// error of any kind — is declined by that pass and decided by the
/// json::Reader DOM, so the pass accepts only what the DOM accepts, with
/// the same request, and every error text is the DOM's.
bool parse_serve_line(const std::string& line, ServeCommand* cmd,
                      std::string* error);

/// Render a response as one JSON line (no trailing newline). Contains
/// only reproducible fields plus cache_hit — never timing — so streams
/// are byte-identical across --jobs values.
std::string serve_response_line(std::uint64_t id, const CoverResponse& resp);

/// Render a protocol-level failure (parse error, bad control verb).
std::string serve_error_line(std::uint64_t id, const std::string& error);

/// Render the cache statistics for the `stats` control verb.
std::string serve_stats_line(std::uint64_t id, const CoverCache& cache);

/// Run the serve protocol over an arbitrary transport until
/// end-of-stream. Emits exactly one response line per input line, in
/// input order (blank lines are ignored). Only when jobs > 1 || batch > 1
/// does the session start a pipeline worker and double-buffer batches
/// (the calling thread parses the next batch while the worker answers
/// the previous one); otherwise every line is answered inline on the
/// calling thread. Returns 0; protocol-level
/// errors are reported in-band as {"ok":false,...} lines, and a dead
/// peer ends the session without raising. Session, request, error and
/// pipeline-depth counts feed engine.metrics().
int serve_session(ServeStream& io, Engine& engine, const ServeConfig& config);

/// serve_session over an istream/ostream pair — the classic stdio
/// `ccov serve` loop the CLI wires to std::cin/std::cout.
int serve_loop(std::istream& in, std::ostream& out, Engine& engine,
               const ServeConfig& config);

}  // namespace ccov::engine
