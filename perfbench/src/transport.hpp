#pragma once
/// \file transport.hpp
/// A `ccov serve` child process on one of its four transports, and the
/// client connection the load generator drives it through.

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Transport { kStdio, kTcp, kHttp, kShm };

inline constexpr Transport kTransports[] = {Transport::kStdio, Transport::kTcp,
                                            Transport::kHttp, Transport::kShm};

const char* transport_name(Transport t);

/// Client side of one serve session. Frames are one or more
/// newline-terminated request lines; responses come back one line at a
/// time, in request order.
class Conn {
 public:
  virtual ~Conn() = default;
  /// Send one frame (HTTP: one POST /v1/batch). False when the peer is
  /// gone.
  virtual bool send(const std::string& frame) = 0;
  /// Next response line, without its newline. False at end of stream.
  virtual bool recv_line(std::string* line) = 0;
  /// No more requests: end the session's input.
  virtual void finish() = 0;
};

/// Server flags beyond the transport.
struct ServerArgs {
  std::size_t jobs = 1;
  std::size_t batch = 1;
  std::size_t cache_capacity = 0;  ///< 0 = the server's default
  std::string cache_file;          ///< "" = no snapshot
};

/// `ccov serve` as a child process. The constructor spawns it and
/// returns once it accepts a connection; the destructor stops it.
class Server {
 public:
  Server(const std::string& binary, Transport t, const ServerArgs& args);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open the client session (for stdio: the child's own pipes; call
  /// once).
  std::unique_ptr<Conn> connect();

  /// Peak resident set (VmHWM) of the child so far, in kB.
  long peak_rss_kb() const;

  /// End the child (stdio: EOF was sent by finish(); others: SIGTERM)
  /// and reap it. Returns true when it exited 0 within the grace period.
  bool stop();

  /// Everything the child wrote to stderr (complete after stop()).
  const std::string& log() const { return log_; }

 private:
  void read_log_until(const std::string& marker);
  void drain_log();

  Transport transport_;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;   ///< write end of the child's stdin (stdio)
  int stdout_fd_ = -1;  ///< read end of the child's stdout (stdio)
  int stderr_fd_ = -1;  ///< read end of the child's stderr
  std::string log_;
  int port_ = 0;
  std::string shm_name_;
  bool reaped_ = false;
};

}  // namespace perfbench
