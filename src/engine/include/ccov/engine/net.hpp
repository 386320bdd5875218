#pragma once
/// \file net.hpp
/// TCP plumbing for the serve front ends (POSIX sockets). The pieces
/// layer cleanly:
///
///  - TcpListener / SocketStream: a bound listening socket and a
///    ServeStream over one accepted connection, both non-blocking with
///    all waiting in poll;
///  - ShutdownPipe: the self-pipe every server front end (TCP, HTTP,
///    shm) shuts down through, and the signal handler's target;
///  - ConnectionServer: the transport-agnostic accept loop — self-pipe
///    shutdown, thread-per-connection, max-clients bound, periodic
///    reaping — parameterized over what to do with an accepted socket;
///  - ServeServer: ConnectionServer + the JSONL serve protocol, one
///    serve_session per connection (http.hpp builds the HTTP front end
///    on the same ConnectionServer).
///
/// Shutdown is cooperative through a self-pipe: shutdown() (or a signal
/// handler via wake_fd()) writes one byte, the accept loop and every
/// blocked per-connection read wake up, sessions flush their pending
/// responses and exit, and run() returns so the caller can still save
/// the store.
///
/// SIGPIPE is ignored for the whole process while a server exists
/// (writes use MSG_NOSIGNAL as well): one client disconnecting
/// mid-response tears down only that connection, never the server.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "ccov/engine/serve.hpp"
#include "ccov/util/thread_annotations.hpp"

namespace ccov::engine::net {

/// Parse a "host:port" listen spec. Accepted forms: "host:port",
/// ":port" (wildcard host), "port" (loopback host), "[v6addr]:port".
/// Port 0 requests an ephemeral port (the listener reports the real
/// one). Returns false and sets *error on malformed specs; never throws.
bool parse_endpoint(const std::string& spec, std::string* host,
                    std::uint16_t* port, std::string* error);

/// Where a TCP-based front end (`--listen`, `--http`) listens, and how
/// many clients it serves at once.
struct ListenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; the server reports the pick
  /// Concurrent connections beyond this are refused with one in-band
  /// error (JSONL line on TCP, 503 on HTTP) and closed immediately.
  std::size_t max_clients = 64;
};

/// The shutdown self-pipe. notify() writes one byte; from then on the
/// read end stays readable, so every poll on read_fd() wakes at once.
/// The destructor disarms install_signal_shutdown's handler if it still
/// targets write_fd(), so a signal after the owner is gone is a no-op
/// instead of a write into a closed (possibly reused) fd.
class ShutdownPipe {
 public:
  /// Throws std::runtime_error when the pipe cannot be created.
  ShutdownPipe();
  ~ShutdownPipe();

  ShutdownPipe(const ShutdownPipe&) = delete;
  ShutdownPipe& operator=(const ShutdownPipe&) = delete;

  /// Request shutdown: write one byte. Async-signal-safe; safe to call
  /// more than once and from any thread.
  void notify() const;

  /// Has notify() (or a signal handler) fired? Waits up to `wait_ms`
  /// for it; the default 0 never blocks.
  bool fired(int wait_ms = 0) const;

  /// Read end, for poll.
  int read_fd() const { return rd_; }
  /// Write end — what install_signal_shutdown's handler writes to.
  int write_fd() const { return wr_; }

 private:
  int rd_ = -1;
  int wr_ = -1;
};

/// Ignore SIGPIPE process-wide so a write to a half-closed socket
/// returns EPIPE instead of killing the process. Idempotent; called by
/// ConnectionServer's constructor.
void ignore_sigpipe();

/// A bound, listening TCP socket (accept backlog 64). Throws
/// std::runtime_error when the address cannot be resolved or bound.
class TcpListener {
 public:
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The actually bound port — resolves port 0 to the kernel's pick.
  std::uint16_t port() const { return port_; }

  /// Block until a connection arrives, `wake_fd` becomes readable, or
  /// `timeout_ms` elapses. Returns the accepted socket fd, kWoken when
  /// `wake_fd` fired (shutdown), kTick on timeout (so callers get a
  /// periodic slot for housekeeping such as reaping finished
  /// connections), or kFailed when the listener itself is broken.
  /// Retries EINTR and transient accept errors internally.
  static constexpr int kWoken = -1;
  static constexpr int kFailed = -2;
  static constexpr int kTick = -3;
  int accept_connection(int wake_fd, int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// ServeStream over a connected socket (switched to non-blocking; all
/// waiting happens in poll). read_some polls the socket together with
/// the server's shutdown pipe, so a blocked read wakes promptly on
/// shutdown and reports end-of-stream. write_all retries EINTR/EAGAIN
/// and partial writes, reports a dead peer (EPIPE/ECONNRESET) as false
/// instead of raising, and — once shutdown has been requested — gives a
/// stalled peer only a bounded grace period to drain its responses, so
/// one full send buffer can never hang the server's shutdown join.
/// Owns the fd.
class SocketStream final : public ServeStream {
 public:
  /// Grace period a write may keep waiting after shutdown is requested.
  static constexpr int kShutdownWriteGraceMs = 5000;

  /// `wake_fd` < 0 disables the shutdown poll (plain blocking reads).
  explicit SocketStream(int fd, int wake_fd = -1);
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  std::ptrdiff_t read_some(char* buf, std::size_t n) override;
  bool write_all(const char* data, std::size_t n) override;

 private:
  int fd_;
  int wake_fd_;
  /// Milliseconds of write grace left once shutdown was observed; -1
  /// until then (wait without a deadline).
  int shutdown_grace_ms_ = -1;
};

/// The generic accept loop every TCP-based front end shares: binds and
/// listens in the constructor (throws std::runtime_error on failure,
/// so port() is valid before run()), then accepts clients and runs one
/// callback per connection on its own thread. Connections beyond
/// `max_clients` get the reject callback on the accepting thread and
/// are closed. Both callbacks receive a connected socket fd (owned by
/// the callback — wrap it in a SocketStream) and the read end of the
/// shutdown self-pipe to pass as that stream's wake fd.
class ConnectionServer {
 public:
  using SessionFn = std::function<void(int client_fd, int wake_fd)>;

  explicit ConnectionServer(const ListenConfig& listen);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Accept clients until shutdown() is called; joins every connection
  /// thread before returning. Returns 0 on a clean shutdown, 1 when the
  /// listener broke.
  int run(SessionFn session, SessionFn reject);

  /// Request shutdown from any thread. Safe to call more than once.
  void shutdown() { wake_.notify(); }

  /// Write end of the self-pipe — async-signal-safe shutdown channel
  /// for signal handlers (write one byte to trigger shutdown).
  int wake_fd() const { return wake_.write_fd(); }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void reap_finished(bool join_all);

  TcpListener listener_;
  std::size_t max_clients_;
  ShutdownPipe wake_;
  util::Mutex conns_mu_;
  std::list<Connection> conns_ CCOV_GUARDED_BY(conns_mu_);
};

/// `ccov serve --listen`: a thread-per-connection TCP server in front of
/// serve_session. Every connection shares `engine` (one cache, one
/// pool); each runs the full JSONL protocol independently with its own
/// per-connection line ids starting at 0. Connections beyond
/// listen.max_clients are answered with one in-band {"ok":false,...}
/// line and closed.
class ServeServer {
 public:
  /// Binds and listens immediately (throws std::runtime_error on
  /// failure) so port() is valid before run() is called. Every
  /// connection runs serve_session with `config`.
  ServeServer(Engine& engine, ServeConfig config, ListenConfig listen = {});

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  std::uint16_t port() const { return server_.port(); }

  /// Accept clients until shutdown() is called; joins every connection
  /// thread before returning. Returns 0 on a clean shutdown.
  int run();

  /// Request shutdown from any thread. Safe to call more than once.
  void shutdown() { server_.shutdown(); }

  /// See ConnectionServer::wake_fd().
  int wake_fd() const { return server_.wake_fd(); }

 private:
  Engine& engine_;
  ServeConfig config_;
  ConnectionServer server_;
};

/// Install SIGINT/SIGTERM handlers that write one byte to `wake_fd`
/// (async-signal-safe) — pass the wake_fd() of a ServeServer,
/// HttpServer or shm::ShmServer, or -1 when there is no wake pipe (the
/// stdio front end, whose blocked read the signal itself interrupts
/// thanks to the handler's missing SA_RESTART). When `cancel` is non-null the
/// handler also fires that token (one relaxed atomic store, so still
/// async-signal-safe), aborting every in-flight solve at its next
/// ~4k-node poll — shutdown latency is bounded by the poll interval,
/// not by the deepest running search. The handlers outlive the server
/// object only as no-ops; intended for the CLI process, which serves
/// exactly one server per run (ShutdownPipe's destructor disarms the
/// wake fd before closing it). The token must outlive the process's
/// last signal — make it a static in the caller.
void install_signal_shutdown(int wake_fd, util::CancelToken* cancel = nullptr);

}  // namespace ccov::engine::net
