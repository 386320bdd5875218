#pragma once
/// \file http.hpp
/// HTTP/1.1 front end for the serve protocol (POSIX only, like net.hpp).
/// An HttpServer accepts keep-alive connections (pipelined requests
/// included) and routes:
///
///   POST /v1/batch   JSONL request lines in the body -> the exact
///                    serve-protocol response lines, streamed back with
///                    chunked transfer encoding as each batch flushes.
///                    The body runs through the same serve_session as
///                    stdio and TCP, so the JSONL payload is
///                    byte-identical across transports.
///   GET  /metrics    Engine metrics in Prometheus text exposition
///                    format (one scrape = one render of the registry).
///   GET  /healthz    "ok" — a liveness probe.
///
/// Request bodies require Content-Length (411 otherwise; chunked request
/// bodies are answered 501) bounded by the server's max_body_bytes
/// (413 above it); request heads are bounded by 64 KiB (431).
/// "Expect: 100-continue" is honored. Connections beyond
/// ListenConfig::max_clients get a 503 and are closed. Shutdown
/// semantics are inherited from ConnectionServer: the self-pipe wakes
/// blocked reads, in-flight responses flush, run() returns.

#include <cstdint>
#include <string>

#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"

namespace ccov::engine::net {

/// A parsed HTTP/1.1 request head (request line + the headers the front
/// end acts on). Exposed, together with find_head_end/parse_head,
/// because head parsing sits directly on untrusted socket bytes — tests
/// and the fuzz harnesses (see fuzz/) drive it without a socket.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  bool has_content_length = false;
  std::uint64_t content_length = 0;
  bool chunked = false;          ///< request used Transfer-Encoding: chunked
  bool expect_continue = false;  ///< Expect: 100-continue
  bool keep_alive = true;
};

/// Locate the head terminator (CRLFCRLF per the RFC; bare LFLF is
/// tolerated). Sets *body_start just past it.
bool find_head_end(const std::string& buf, std::size_t* head_end,
                   std::size_t* body_start);

/// Parse a request head (everything before the terminator). Returns
/// false and sets *error on a malformed request line, header line or
/// Content-Length; never throws.
bool parse_head(const std::string& head, HttpRequest* req,
                std::string* error);

/// `ccov serve --http`: thread-per-connection HTTP server in front of
/// serve_session and the metrics registry. Every connection shares
/// `engine` (one cache, one pool, one MetricsRegistry).
class HttpServer {
 public:
  /// Default bound on a POST /v1/batch Content-Length (`--max-body`).
  static constexpr std::size_t kDefaultMaxBodyBytes = 64u << 20;

  /// Binds and listens immediately (throws std::runtime_error on
  /// failure) so port() is valid before run() is called. Each batch
  /// body runs serve_session with `config`; a Content-Length above
  /// `max_body_bytes` is refused with 413 before any body byte is read.
  HttpServer(Engine& engine, ServeConfig config, ListenConfig listen = {},
             std::size_t max_body_bytes = kDefaultMaxBodyBytes);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return server_.port(); }

  /// Accept clients until shutdown() is called; joins every connection
  /// thread before returning. Returns 0 on a clean shutdown.
  int run();

  /// Request shutdown from any thread. Safe to call more than once.
  void shutdown() { server_.shutdown(); }

  /// See ConnectionServer::wake_fd().
  int wake_fd() const { return server_.wake_fd(); }

 private:
  void handle_connection(int client_fd, int wake_fd);

  Engine& engine_;
  ServeConfig config_;
  std::size_t max_body_bytes_;
  ConnectionServer server_;
  Counter& requests_;     ///< ccov_http_requests_total
  Counter& errors_;       ///< ccov_http_errors_total (4xx/5xx answered)
  Counter& connections_;  ///< ccov_http_connections_total
};

}  // namespace ccov::engine::net
