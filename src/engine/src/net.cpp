#include "ccov/engine/net.hpp"

#include "ccov/util/failpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace ccov::engine::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

}  // namespace

bool parse_endpoint(const std::string& spec, std::string* host,
                    std::uint16_t* port, std::string* error) {
  std::string h;
  std::string p;
  if (!spec.empty() && spec.front() == '[') {
    // "[v6addr]:port"
    const std::size_t close = spec.find(']');
    if (close == std::string::npos || close + 1 >= spec.size() ||
        spec[close + 1] != ':') {
      *error = "expected '[host]:port'";
      return false;
    }
    h = spec.substr(1, close - 1);
    p = spec.substr(close + 2);
  } else {
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      h = "127.0.0.1";  // bare "port"
      p = spec;
    } else {
      h = spec.substr(0, colon);
      p = spec.substr(colon + 1);
      if (h.find(':') != std::string::npos) {
        // A bare IPv6 address ("::1") would silently split at the last
        // colon into the wrong host and port.
        *error = "IPv6 addresses must be bracketed: '[" + spec + "]:port'";
        return false;
      }
      if (h.empty()) h = "0.0.0.0";  // ":port" = wildcard
    }
  }
  if (h.empty() || p.empty()) {
    *error = "expected 'host:port'";
    return false;
  }
  unsigned long value = 0;
  for (const char c : p) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      *error = "port '" + p + "' is not a number";
      return false;
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) {
      *error = "port '" + p + "' is out of range";
      return false;
    }
  }
  *host = h;
  *port = static_cast<std::uint16_t>(value);
  error->clear();
  return true;
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &result);
  if (rc != 0)
    throw std::runtime_error("net: cannot resolve '" + host +
                             "': " + ::gai_strerror(rc));
  std::string last_error = "no usable address";
  for (addrinfo* ai = result; ai; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, /*backlog=*/64) == 0) {
      // Non-blocking, so an accept() racing a peer that already reset
      // (poll said readable, the connection vanished) returns EAGAIN
      // instead of blocking the accept loop outside poll.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      fd_ = fd;
      break;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(result);
  if (fd_ < 0)
    throw std::runtime_error("net: cannot listen on " + host + ":" + service +
                             ": " + last_error);
  sockaddr_storage bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = bound.ss_family == AF_INET6
              ? ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port)
              : ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int TcpListener::accept_connection(int wake_fd, int timeout_ms) {
  for (;;) {
    if (fd_ < 0) return kFailed;
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
    const int rc = ::poll(fds, nfds, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return kFailed;
    }
    if (rc == 0) return kTick;
    if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)))
      return kWoken;  // shutdown requested
    if (!(fds[0].revents & (POLLIN | POLLERR | POLLHUP))) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return client;
    // Transient accept failures (the peer vanished between poll and
    // accept) must not kill the server.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK)
      continue;
    if (errno == EMFILE || errno == ENFILE) {
      // Out of fds: back off instead of hot-spinning on a listener
      // whose POLLIN stays set, giving active sessions time to finish
      // and release descriptors.
      ::poll(nullptr, 0, 50);
      continue;
    }
    return kFailed;
  }
}

// ---------------------------------------------------------------------------
// SocketStream
// ---------------------------------------------------------------------------

SocketStream::SocketStream(int fd, int wake_fd) : fd_(fd), wake_fd_(wake_fd) {
  // Non-blocking: every wait below happens in poll, so a send can never
  // block past what write_all's shutdown grace period allows.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  // Disable Nagle: responses written as several small sends (the HTTP
  // front end's header + chunk frames) must not wait out the peer's
  // delayed ACK — a 40ms stall per response on an idle connection.
  // Failure is fine; the fd may not be TCP (tests use socketpairs).
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

SocketStream::~SocketStream() {
  if (fd_ >= 0) ::close(fd_);
}

std::ptrdiff_t SocketStream::read_some(char* buf, std::size_t n) {
  // Fault-injection seam: a failed socket read looks like the peer
  // hanging up (end-of-stream), which is exactly how a real half-open
  // connection surfaces here.
  if (CCOV_FAILPOINT("net_read")) return 0;
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_fd_, POLLIN, 0};
    const nfds_t nfds = wake_fd_ >= 0 ? 2 : 1;
    const int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    // Shutdown wins over pending input: the session flushes what it has
    // already parsed and exits, which is the documented drain behavior.
    if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) return 0;
    if (!(fds[0].revents & (POLLIN | POLLERR | POLLHUP))) continue;
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<std::ptrdiff_t>(r);
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return 0;  // peer vanished = end of stream
    return -1;
  }
}

bool SocketStream::write_all(const char* data, std::size_t n) {
  // Fault-injection seam: a failed write is a dead peer (EPIPE-like);
  // only this connection tears down.
  if (CCOV_FAILPOINT("net_write")) return false;
  std::size_t off = 0;
  while (off < n) {
    pollfd fds[2];
    fds[0] = {fd_, POLLOUT, 0};
    fds[1] = {wake_fd_, POLLIN, 0};
    // Before shutdown: wait for writability without a deadline (also
    // watching the wake pipe so a stall notices the shutdown request).
    // After shutdown: keep writing — these are responses already owed —
    // but only within the remaining grace budget, so one client that
    // stopped reading cannot hang the server's shutdown join forever.
    const bool watch_wake = wake_fd_ >= 0 && shutdown_grace_ms_ < 0;
    const nfds_t nfds = watch_wake ? 2 : 1;
    const auto before = std::chrono::steady_clock::now();
    const int rc = ::poll(fds, nfds, shutdown_grace_ms_);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;  // grace period exhausted; drop the peer
    if (shutdown_grace_ms_ > 0) {
      const auto waited_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - before)
              .count();
      shutdown_grace_ms_ = static_cast<int>(std::max<long long>(
          1, shutdown_grace_ms_ - static_cast<long long>(waited_ms)));
    }
    if (watch_wake && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)))
      shutdown_grace_ms_ = kShutdownWriteGraceMs;
    if (!(fds[0].revents & (POLLOUT | POLLERR | POLLHUP))) continue;
#ifdef MSG_NOSIGNAL
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
#else
    const ssize_t w = ::send(fd_, data + off, n - off, 0);
#endif
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    return false;  // EPIPE, ECONNRESET, ... — only this connection dies
  }
  return true;
}

// ---------------------------------------------------------------------------
// ShutdownPipe
// ---------------------------------------------------------------------------

namespace {

/// Self-pipe write end the SIGINT/SIGTERM handlers target; reset when
/// its ShutdownPipe is destroyed so a late signal is a no-op instead
/// of a write into a closed (possibly reused) fd.
std::atomic<int> g_shutdown_fd{-1};

/// Server-wide cancel token the same handlers fire, so in-flight solves
/// abort at their next ~4k-node poll instead of running to completion.
/// CancelToken::cancel() is one relaxed atomic store — async-signal-safe.
std::atomic<util::CancelToken*> g_shutdown_cancel{nullptr};

void on_shutdown_signal(int) {
  if (util::CancelToken* tok =
          g_shutdown_cancel.load(std::memory_order_relaxed))
    tok->cancel();
  const int fd = g_shutdown_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

ShutdownPipe::ShutdownPipe() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw_errno("pipe");
  rd_ = pipe_fds[0];
  wr_ = pipe_fds[1];
}

ShutdownPipe::~ShutdownPipe() {
  // Disarm any installed signal handler before the fd goes away.
  int expected = wr_;
  g_shutdown_fd.compare_exchange_strong(expected, -1,
                                        std::memory_order_relaxed);
  ::close(rd_);
  ::close(wr_);
}

void ShutdownPipe::notify() const {
  const char byte = 's';
  [[maybe_unused]] const ssize_t rc = ::write(wr_, &byte, 1);
}

bool ShutdownPipe::fired(int wait_ms) const {
  pollfd pfd{rd_, POLLIN, 0};
  return ::poll(&pfd, 1, wait_ms) > 0 &&
         (pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0;
}

// ---------------------------------------------------------------------------
// ConnectionServer
// ---------------------------------------------------------------------------

ConnectionServer::ConnectionServer(const ListenConfig& listen)
    : listener_(listen.host, listen.port), max_clients_(listen.max_clients) {
  ignore_sigpipe();
}

ConnectionServer::~ConnectionServer() {
  shutdown();
  reap_finished(/*join_all=*/true);
}

void ConnectionServer::reap_finished(bool join_all) {
  util::MutexLock lk(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (join_all || it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

int ConnectionServer::run(SessionFn session, SessionFn reject) {
  int rc = 0;
  for (;;) {
    // The 1 s tick bounds how long an idle server keeps finished
    // connection threads unjoined.
    const int client =
        listener_.accept_connection(wake_.read_fd(), /*timeout_ms=*/1000);
    if (client == TcpListener::kTick) {
      reap_finished(/*join_all=*/false);
      continue;
    }
    if (client < 0) {
      // A broken listener is a failure, not a clean shutdown: callers
      // (and scripts watching the exit code) must be able to tell.
      if (client == TcpListener::kFailed) rc = 1;
      break;
    }
    // Reap after accept, not before it: connections that finished while
    // we were blocked must not count against the max-clients bound.
    reap_finished(/*join_all=*/false);
    std::size_t active = 0;
    {
      util::MutexLock lk(conns_mu_);
      active = conns_.size();
    }
    if (active >= max_clients_) {
      // Rejected inline on the accepting thread; the callback owns the
      // fd and must close it (a SocketStream destructor does).
      reject(client, wake_.read_fd());
      continue;
    }
    util::MutexLock lk(conns_mu_);
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.thread = std::thread([this, client, &conn, &session] {
      session(client, wake_.read_fd());
      conn.done.store(true, std::memory_order_release);
    });
  }
  listener_.close();
  // Sessions must see the wake-up even when run() ends because the
  // listener broke rather than because shutdown() wrote the byte.
  if (rc != 0) shutdown();
  // The wake byte is in the pipe, so every blocked per-connection read
  // wakes, flushes its pending responses and exits.
  reap_finished(/*join_all=*/true);
  return rc;
}

// ---------------------------------------------------------------------------
// ServeServer
// ---------------------------------------------------------------------------

ServeServer::ServeServer(Engine& engine, ServeConfig config,
                         ListenConfig listen)
    : engine_(engine), config_(std::move(config)), server_(listen) {}

int ServeServer::run() {
  return server_.run(
      [this](int client, int wake_fd) {
        SocketStream stream(client, wake_fd);
        serve_session(stream, engine_, config_);
      },
      [](int client, int wake_fd) {
        SocketStream stream(client, wake_fd);
        const std::string line =
            serve_error_line(0, "server busy: too many clients") + "\n";
        stream.write_all(line.data(), line.size());
      });
}

void install_signal_shutdown(int wake_fd, util::CancelToken* cancel) {
  g_shutdown_fd.store(wake_fd, std::memory_order_relaxed);
  g_shutdown_cancel.store(cancel, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll/accept must see the wake-up
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace ccov::engine::net
