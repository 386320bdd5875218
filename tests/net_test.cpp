// Tests for the TCP front end (net.hpp): endpoint parsing, loopback
// round trips that must be byte-identical to the stdio transport,
// concurrent clients sharing one warm CoverCache, and resilience when a
// client disconnects mid-stream (the server must outlive EPIPE).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "stray_signal.hpp"

namespace eng = ccov::engine;
namespace net = ccov::engine::net;

namespace {

// ---------------------------------------------------------------------------
// A minimal blocking test client.
// ---------------------------------------------------------------------------

class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    EXPECT_TRUE(connected_) << std::strerror(errno);
  }

  ~TestClient() { close(); }

  bool connected() const { return connected_; }

  void send_text(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w = ::send(fd_, text.data() + off, text.size() - off, 0);
      if (w < 0 && errno == EINTR) continue;
      ASSERT_GT(w, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(w);
    }
  }

  /// Half-close: tells the server this client sent everything (EOF).
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// Read one '\n'-terminated line (without the newline). Empty result
  /// means the stream ended first.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return {};
    }
  }

  /// Drain the stream to EOF and return everything (including what was
  /// already buffered).
  std::string read_to_eof() {
    while (fill()) {
    }
    return std::exchange(buffer_, std::string());
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(r));
      return true;
    }
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// A running ServeServer on an ephemeral loopback port.
class ServerHarness {
 public:
  explicit ServerHarness(eng::ServeConfig config = {},
                         net::ListenConfig listen = {})
      : server_(engine_, std::move(config), std::move(listen)),
        runner_([this] { rc_ = server_.run(); }) {}

  ~ServerHarness() { stop(); }

  void stop() {
    if (runner_.joinable()) {
      server_.shutdown();
      runner_.join();
    }
  }

  eng::Engine& engine() { return engine_; }
  std::uint16_t port() const { return server_.port(); }
  int exit_code() const { return rc_; }

 private:
  eng::Engine engine_;
  net::ServeServer server_;
  int rc_ = -1;
  std::thread runner_;
};

std::string stdio_reference(eng::Engine& engine, const std::string& input,
                            eng::ServeConfig config = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(eng::serve_loop(in, out, engine, config), 0);
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------------

TEST(NetEndpoint, ParsesTheDocumentedForms) {
  std::string host;
  std::uint16_t port = 0;
  std::string error;

  EXPECT_TRUE(net::parse_endpoint("127.0.0.1:8080", &host, &port, &error));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);

  EXPECT_TRUE(net::parse_endpoint("0", &host, &port, &error));
  EXPECT_EQ(host, "127.0.0.1");  // bare port = loopback
  EXPECT_EQ(port, 0);

  EXPECT_TRUE(net::parse_endpoint(":9100", &host, &port, &error));
  EXPECT_EQ(host, "0.0.0.0");  // ":port" = wildcard

  EXPECT_TRUE(net::parse_endpoint("[::1]:9100", &host, &port, &error));
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 9100);

  EXPECT_TRUE(net::parse_endpoint("localhost:65535", &host, &port, &error));
  EXPECT_EQ(port, 65535);
}

TEST(NetEndpoint, RejectsMalformedSpecs) {
  std::string host;
  std::uint16_t port = 0;
  std::string error;
  for (const char* bad :
       {"", ":", "host:", "host:notaport", "host:70000", "[::1]9100",
        "host:-1", "host:12x", "::1", "fe80::1:9100"}) {
    EXPECT_FALSE(net::parse_endpoint(bad, &host, &port, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Loopback round trips
// ---------------------------------------------------------------------------

namespace {

const char kWorkloadA[] =
    "{\"algo\":\"construct\",\"n\":9}\n"
    "{\"algo\":\"solve\",\"n\":7}\n"
    "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[0,3],[1,4],[2,7]]}\n"
    "not json at all\n"
    "{\"algo\":\"construct\",\"n\":9}\n";

// The same instances as kWorkloadA, rotated through D_n (the greedy
// demand is kWorkloadA's shifted by +2): a warm cache answers all of
// them with nodes=0.
const char kWorkloadB[] =
    "{\"algo\":\"construct\",\"n\":9}\n"
    "{\"algo\":\"solve\",\"n\":7}\n"
    "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[2,5],[3,6],[0,4]]}\n"
    "{\"op\":\"stats\"}\n";

}  // namespace

TEST(NetServer, RoundTripIsByteIdenticalToStdio) {
  // Reference: the exact bytes the stdio transport produces for this
  // stream against a fresh engine.
  eng::Engine reference_engine;
  const std::string expected = stdio_reference(reference_engine, kWorkloadA);

  ServerHarness server;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_text(kWorkloadA);
  client.finish_sending();
  EXPECT_EQ(client.read_to_eof(), expected);

  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
}

TEST(NetServer, ConcurrentClientsShareOneWarmCache) {
  ServerHarness server;

  // Both clients are connected at once; their overlapping requests are
  // sequenced so the byte streams stay deterministic: A computes, then
  // B repeats D_n-equivalent instances and must be served from the
  // shared cache.
  TestClient a(server.port());
  TestClient b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());

  // The reference bytes come from one stdio engine that sees A's stream
  // and then B's stream — the serve protocol restarts ids per session,
  // exactly like two sequential serve_loop calls on a shared engine.
  eng::Engine reference_engine;
  const std::string expect_a = stdio_reference(reference_engine, kWorkloadA);
  const std::string expect_b = stdio_reference(reference_engine, kWorkloadB);

  a.send_text(kWorkloadA);
  a.finish_sending();
  EXPECT_EQ(a.read_to_eof(), expect_a);

  b.send_text(kWorkloadB);
  b.finish_sending();
  const std::string got_b = b.read_to_eof();
  EXPECT_EQ(got_b, expect_b);

  // B's compute responses all came from the cache A warmed...
  EXPECT_NE(got_b.find("\"id\":0,\"ok\":true,\"algo\":\"construct\""),
            std::string::npos)
      << got_b;
  EXPECT_NE(got_b.find("\"nodes\":0,\"cache_hit\":true"), std::string::npos)
      << got_b;
  // ...and the stats verb shows the cross-client hits on the shared
  // store (A's own duplicate plus B's three repeats).
  const std::size_t hits_pos = got_b.find("\"hits\":");
  ASSERT_NE(hits_pos, std::string::npos) << got_b;
  EXPECT_GE(std::stoul(got_b.substr(hits_pos + 7)), 4u) << got_b;
}

TEST(NetServer, ManyClientsHammeringStayIndexAligned) {
  ServerHarness server;
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 12;

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, c] {
      TestClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (int i = 0; i < kRequestsEach; ++i) {
        // Overlapping D_n-equivalent instances across clients, ping-pong
        // so every response is matched to its request line.
        const int shift = (c + i) % 3;
        const std::string req =
            "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[" +
            std::to_string(shift) + "," + std::to_string(shift + 3) + "],[" +
            std::to_string(shift + 1) + "," + std::to_string(shift + 4) +
            "]]}\n";
        client.send_text(req);
        const std::string line = client.read_line();
        const std::string prefix = "{\"id\":" + std::to_string(i) + ",";
        EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
        EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
      }
      client.finish_sending();
    });
  }
  for (auto& t : threads) t.join();

  // Every demand above is a rotation of [[0,3],[1,4]] — one canonical
  // instance. In the worst race each client misses its very first
  // lookup before anyone inserted; everything after that must hit.
  const auto stats = server.engine().cache().stats();
  EXPECT_GE(stats.hits,
            static_cast<std::uint64_t>(kClients * (kRequestsEach - 1)));
}

TEST(NetServer, ClientDisconnectingMidStreamOnlyKillsItsConnection) {
  ServerHarness server;

  {
    // This client fires several requests and vanishes without reading a
    // byte: the server's writes hit a dead socket (EPIPE/RST). If
    // SIGPIPE were not ignored this would kill the whole test binary.
    TestClient rude(server.port());
    ASSERT_TRUE(rude.connected());
    for (int i = 0; i < 5; ++i)
      rude.send_text("{\"algo\":\"construct\",\"n\":32}\n");
    rude.close();
  }

  // The server keeps serving other clients.
  eng::Engine reference_engine;
  const std::string expected = stdio_reference(reference_engine, kWorkloadA);
  TestClient polite(server.port());
  ASSERT_TRUE(polite.connected());
  polite.send_text(kWorkloadA);
  polite.finish_sending();
  EXPECT_EQ(polite.read_to_eof(), expected);

  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
}

TEST(NetServer, RefusesClientsBeyondMaxWithAnInBandError) {
  net::ListenConfig listen;
  listen.max_clients = 1;
  ServerHarness server({}, listen);

  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  // Round-trip once so the connection is registered server-side.
  first.send_text("{\"algo\":\"construct\",\"n\":9}\n");
  EXPECT_FALSE(first.read_line().empty());

  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  const std::string line = second.read_line();
  EXPECT_NE(line.find("server busy"), std::string::npos) << line;
  EXPECT_TRUE(second.read_to_eof().empty());  // then the server hangs up

  // The first client is unaffected.
  first.send_text("{\"op\":\"stats\"}\n");
  EXPECT_NE(first.read_line().find("\"op\":\"stats\",\"ok\":true"),
            std::string::npos);
}

TEST(NetServer, ShutdownDrainsBlockedReadersAndReturnsZero) {
  ServerHarness server;
  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  // One round trip so the connection is registered, then shut down
  // while the connection's reader is blocked in poll waiting for more.
  idle.send_text("{\"algo\":\"construct\",\"n\":9}\n");
  EXPECT_FALSE(idle.read_line().empty());
  server.stop();
  EXPECT_EQ(server.exit_code(), 0);
  // The blocked reader was woken and the connection closed cleanly.
  EXPECT_TRUE(idle.read_to_eof().empty());
}

TEST(NetServer, DestroyedServerDisarmsTheSignalHandler) {
  eng::Engine engine;
  EXPECT_FALSE(signal_reaches_reused_wake_fd([&engine] {
    return std::make_unique<net::ServeServer>(engine, eng::ServeConfig{});
  }));
}
