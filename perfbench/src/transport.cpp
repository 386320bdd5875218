#include "transport.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "ccov/engine/shm.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {  // a nonblocking socket with a full buffer
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, -1);
        continue;
      }
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads that find nothing before the reader blocks in poll(): a reply
/// that arrives within this spin (tens of microseconds) costs the client
/// no wake-up, as with the shm ring's spin-then-futex wait.
constexpr int kSpinReads = 200;

/// Buffered reads from one fd (switched to nonblocking mode).
class FdReader {
 public:
  explicit FdReader(int fd) : fd_(fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }

  /// Next '\n'-terminated line (newline and a trailing '\r' stripped).
  bool line(std::string* out) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', head_);
      if (nl != std::string::npos) {
        std::size_t end = nl;
        if (end > head_ && buf_[end - 1] == '\r') --end;
        out->assign(buf_, head_, end - head_);
        head_ = nl + 1;
        return true;
      }
      if (!fill()) return false;
    }
  }

  /// Append exactly `n` bytes to *out.
  bool exact(std::size_t n, std::string* out) {
    while (buf_.size() - head_ < n)
      if (!fill()) return false;
    out->append(buf_, head_, n);
    head_ += n;
    return true;
  }

 private:
  bool fill() {
    if (head_ > 0 && head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ > (1u << 16)) {
      buf_.erase(0, head_);
      head_ = 0;
    }
    char chunk[1 << 16];
    for (int spins = 0;; ++spins) {
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);
      if (r > 0) {
        buf_.append(chunk, static_cast<std::size_t>(r));
        return true;
      }
      if (r == 0) return false;
      if (errno == EINTR) continue;
      if (errno != EAGAIN) return false;
      if (spins >= kSpinReads) {
        pollfd p{fd_, POLLIN, 0};
        ::poll(&p, 1, -1);
      }
    }
  }

  int fd_;
  std::string buf_;
  std::size_t head_ = 0;
};

/// Pipes (stdio) or a TCP socket carrying raw JSONL.
class FdConn final : public Conn {
 public:
  /// Takes ownership of both fds (equal for a socket).
  FdConn(int rd, int wr) : rd_(rd), wr_(wr), reader_(rd) {}
  ~FdConn() override {
    if (wr_ >= 0 && wr_ != rd_) ::close(wr_);
    ::close(rd_);
  }

  bool send(const std::string& frame) override {
    return wr_ >= 0 && write_all(wr_, frame.data(), frame.size());
  }
  bool recv_line(std::string* line) override { return reader_.line(line); }
  void finish() override {
    if (wr_ < 0) return;
    if (wr_ == rd_) {
      ::shutdown(wr_, SHUT_WR);
    } else {
      ::close(wr_);
    }
    wr_ = -1;
  }

 private:
  int rd_;
  int wr_;
  FdReader reader_;
};

/// One keep-alive connection; each frame is a POST /v1/batch whose
/// chunked response carries the frame's response lines.
class HttpConn final : public Conn {
 public:
  explicit HttpConn(int fd) : fd_(fd), reader_(fd) {}
  ~HttpConn() override { ::close(fd_); }

  bool send(const std::string& frame) override {
    std::string req =
        "POST /v1/batch HTTP/1.1\r\nHost: perfbench\r\n"
        "Content-Type: application/x-ndjson\r\nContent-Length: ";
    req += std::to_string(frame.size());
    req += "\r\n\r\n";
    req += frame;
    return write_all(fd_, req.data(), req.size());
  }

  bool recv_line(std::string* line) override {
    for (;;) {
      const std::size_t nl = payload_.find('\n', head_);
      if (nl != std::string::npos) {
        line->assign(payload_, head_, nl - head_);
        head_ = nl + 1;
        if (head_ == payload_.size()) payload_.clear(), head_ = 0;
        return true;
      }
      if (!advance()) return false;
    }
  }

  void finish() override { ::shutdown(fd_, SHUT_WR); }

 private:
  /// Consume the next piece of the response stream: a response head, a
  /// chunk (appended to the payload) or a terminating zero chunk.
  bool advance() {
    std::string l;
    if (!in_body_) {
      if (!reader_.line(&l)) return false;
      if (l.rfind("HTTP/1.1 200", 0) != 0) return false;
      do {
        if (!reader_.line(&l)) return false;
      } while (!l.empty());
      in_body_ = true;
      return true;
    }
    if (!reader_.line(&l)) return false;
    const std::size_t n = std::strtoull(l.c_str(), nullptr, 16);
    if (n == 0) {
      in_body_ = false;
      return reader_.line(&l);  // CRLF after the last chunk
    }
    if (!reader_.exact(n, &payload_)) return false;
    return reader_.line(&l);  // chunk-ending CRLF
  }

  int fd_;
  FdReader reader_;
  bool in_body_ = false;
  std::string payload_;
  std::size_t head_ = 0;
};

/// The shared-memory rings, pumped from one thread: a full request ring
/// is relieved by draining responses, as `ccov client --shm` does.
class ShmConn final : public Conn {
 public:
  ShmConn() = default;
  ~ShmConn() override { client_.close(); }

  ccov::engine::shm::ShmClient& client() { return client_; }

  bool send(const std::string& frame) override {
    std::size_t off = 0;
    while (off < frame.size()) {
      const std::size_t took =
          client_.try_send(frame.data() + off, frame.size() - off);
      off += took;
      if (took == 0) {
        client_.drain_available(&rx_);
        if (!client_.ok()) return false;
        client_.wait_send(50);
      }
    }
    return true;
  }

  bool recv_line(std::string* line) override {
    for (;;) {
      const std::size_t nl = rx_.find('\n', head_);
      if (nl != std::string::npos) {
        line->assign(rx_, head_, nl - head_);
        head_ = nl + 1;
        if (head_ == rx_.size()) rx_.clear(), head_ = 0;
        return true;
      }
      if (client_.read_some(&rx_) == 0) return false;
    }
  }

  void finish() override { client_.finish(); }

 private:
  ccov::engine::shm::ShmClient client_;
  std::string rx_;
  std::size_t head_ = 0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw sys_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw sys_error("connect 127.0.0.1:" + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::atomic<unsigned> g_shm_serial{0};

}  // namespace

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kStdio: return "stdio";
    case Transport::kTcp: return "tcp";
    case Transport::kHttp: return "http";
    case Transport::kShm: return "shm";
  }
  return "?";
}

Server::Server(const std::string& binary, Transport t, const ServerArgs& args)
    : transport_(t) {
  std::vector<std::string> argv = {binary, "serve", "--jobs",
                                   std::to_string(args.jobs), "--batch",
                                   std::to_string(args.batch)};
  if (args.cache_capacity) {
    argv.push_back("--cache-capacity");
    argv.push_back(std::to_string(args.cache_capacity));
  }
  if (!args.cache_file.empty()) {
    argv.push_back("--cache-file");
    argv.push_back(args.cache_file);
  }
  switch (t) {
    case Transport::kStdio: break;
    case Transport::kTcp: argv.insert(argv.end(), {"--listen", "127.0.0.1:0"}); break;
    case Transport::kHttp: argv.insert(argv.end(), {"--http", "127.0.0.1:0"}); break;
    case Transport::kShm:
      shm_name_ = "ccov_perfbench_" + std::to_string(::getpid()) + "_" +
                  std::to_string(g_shm_serial++);
      argv.insert(argv.end(), {"--shm", shm_name_});
      break;
  }

  int in[2] = {-1, -1}, out[2] = {-1, -1}, err[2] = {-1, -1};
  if (::pipe2(err, O_CLOEXEC) != 0) throw sys_error("pipe");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (t == Transport::kStdio) {
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
      throw sys_error("pipe");
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_adddup2(&fa, err[1], 2);
  // The generator ignores SIGPIPE; the server must start with defaults.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t defaults;
  sigemptyset(&defaults);
  sigaddset(&defaults, SIGPIPE);
  posix_spawnattr_setsigdefault(&attr, &defaults);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);

  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, &attr,
                               cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  ::close(err[1]);
  if (t == Transport::kStdio) {
    ::close(in[0]);
    ::close(out[1]);
    stdin_fd_ = in[1];
    stdout_fd_ = out[0];
  }
  stderr_fd_ = err[0];
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    throw sys_error("spawn " + binary);
  }

  // Wait until the server reports its endpoint.
  if (t == Transport::kTcp || t == Transport::kHttp) {
    const std::string marker =
        t == Transport::kTcp ? "serve: listening on " : "serve: http listening on ";
    read_log_until(marker);
    const std::size_t at = log_.find(marker);
    const std::size_t eol = log_.find('\n', at);
    const std::string endpoint = log_.substr(at + marker.size(), eol - at - marker.size());
    port_ = std::atoi(endpoint.substr(endpoint.rfind(':') + 1).c_str());
  } else if (t == Transport::kShm) {
    read_log_until("serve: shm serving on ");
  }
}

void Server::read_log_until(const std::string& marker) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (log_.find(marker) == std::string::npos ||
         log_.find('\n', log_.find(marker)) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd p{stderr_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0)
      throw std::runtime_error("server did not start: " + log_);
    char buf[4096];
    const ssize_t r = ::read(stderr_fd_, buf, sizeof buf);
    if (r <= 0) throw std::runtime_error("server exited at start: " + log_);
    log_.append(buf, static_cast<std::size_t>(r));
  }
}

void Server::drain_log() {
  if (stderr_fd_ < 0) return;
  for (;;) {
    pollfd p{stderr_fd_, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0) return;
    char buf[4096];
    const ssize_t r = ::read(stderr_fd_, buf, sizeof buf);
    if (r <= 0) {
      ::close(stderr_fd_);
      stderr_fd_ = -1;
      return;
    }
    log_.append(buf, static_cast<std::size_t>(r));
  }
}

std::unique_ptr<Conn> Server::connect() {
  switch (transport_) {
    case Transport::kStdio: {
      auto conn = std::make_unique<FdConn>(stdout_fd_, stdin_fd_);
      stdout_fd_ = stdin_fd_ = -1;  // owned by the connection now
      return conn;
    }
    case Transport::kTcp: {
      const int fd = connect_loopback(port_);
      return std::make_unique<FdConn>(fd, fd);
    }
    case Transport::kHttp:
      return std::make_unique<HttpConn>(connect_loopback(port_));
    case Transport::kShm: {
      auto conn = std::make_unique<ShmConn>();
      std::string error;
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (!conn->client().connect(shm_name_, &error)) {
        if (Clock::now() > deadline)
          throw std::runtime_error("shm connect: " + error);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return conn;
    }
  }
  return nullptr;
}

long Server::peak_rss_kb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

bool Server::stop() {
  if (reaped_ || pid_ < 0) return false;
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (transport_ != Transport::kStdio) ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    drain_log();
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  reaped_ = true;
  drain_log();
  if (!shm_name_.empty()) ::shm_unlink(("/" + shm_name_).c_str());
  return status == 0;
}

Server::~Server() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    if (!shm_name_.empty()) ::shm_unlink(("/" + shm_name_).c_str());
  }
  for (int fd : {stdin_fd_, stdout_fd_, stderr_fd_})
    if (fd >= 0) ::close(fd);
}

}  // namespace perfbench
