#pragma once
// Shared by the net, http and shm tests: does a destroyed server leave
// the SIGINT/SIGTERM handler aimed at a wake fd it no longer owns?

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <csignal>

#include "ccov/engine/net.hpp"

/// Points install_signal_shutdown at the wake fd of the server `make`
/// returns (a std::unique_ptr), destroys the server, puts the write end
/// of a fresh pipe on that fd number and raises SIGTERM. Returns true
/// when the pipe received a byte: the handler outlived the server as a
/// write into whatever file now has its old fd. The handler stays
/// installed for the rest of the process; gtest_discover_tests runs
/// each test in a process of its own.
template <class MakeServer>
bool signal_reaches_reused_wake_fd(MakeServer make) {
  auto server = make();
  const int wake = server->wake_fd();
  ccov::engine::net::install_signal_shutdown(wake, nullptr);
  // Opened while `wake` is still taken, so neither end can land on it.
  int fresh[2];
  if (::pipe(fresh) != 0) {
    ADD_FAILURE() << "pipe failed";
    return false;
  }
  server.reset();
  EXPECT_EQ(::dup2(fresh[1], wake), wake);
  std::raise(SIGTERM);
  pollfd pfd{fresh[0], POLLIN, 0};
  const bool got_byte = ::poll(&pfd, 1, 0) > 0;
  ::close(wake);
  ::close(fresh[0]);
  ::close(fresh[1]);
  return got_byte;
}
