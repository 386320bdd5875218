// Tests for the shared-memory transport: the SPSC byte ring underneath
// it (wrap-around, backpressure, cross-thread hammering) and the
// ShmServer/ShmClient pair on top (handshake rejection of torn
// segments, busy slots, end-to-end byte identity against the stdio
// transport from a fork()'d client process).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/shm.hpp"
#include "ccov/util/shm_ring.hpp"
#include "stray_signal.hpp"

namespace eng = ccov::engine;
namespace shm = ccov::engine::shm;
using ccov::util::ShmByteRing;

namespace {

std::vector<char> ring_region(std::size_t capacity) {
  // Over-align generously: the real transport gets page-aligned memory
  // from mmap; alignof(Control) is what init actually needs.
  return std::vector<char>(ShmByteRing::region_bytes(capacity) + 64);
}

void* aligned_base(std::vector<char>& region) {
  void* p = region.data();
  std::size_t space = region.size();
  return std::align(64, region.size() - 64, p, space);
}

/// A per-test unique segment name: parallel ctest runs must not share
/// POSIX shm names.
std::string unique_shm_name(const char* tag) {
  return std::string("ccov-test-") + tag + "-" + std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// ShmRing: the SPSC byte ring on a plain heap buffer.
// ---------------------------------------------------------------------------

TEST(ShmRing, CapacityValidation) {
  EXPECT_FALSE(ShmByteRing::valid_capacity(0));
  EXPECT_FALSE(ShmByteRing::valid_capacity(32));   // below minimum
  EXPECT_FALSE(ShmByteRing::valid_capacity(96));   // not a power of two
  EXPECT_FALSE(ShmByteRing::valid_capacity((1u << 30) + 1));
  EXPECT_TRUE(ShmByteRing::valid_capacity(64));
  EXPECT_TRUE(ShmByteRing::valid_capacity(1 << 20));

  std::vector<char> region = ring_region(64);
  EXPECT_FALSE(ShmByteRing::init(aligned_base(region), 96).valid());
  EXPECT_TRUE(ShmByteRing::init(aligned_base(region), 64).valid());
}

TEST(ShmRing, AttachValidatesStoredCapacity) {
  std::vector<char> region = ring_region(128);
  ASSERT_TRUE(ShmByteRing::init(aligned_base(region), 128).valid());
  EXPECT_TRUE(ShmByteRing::attach(aligned_base(region), 128).valid());
  // A reader expecting a different geometry must be refused — offsets
  // would be computed against the wrong mask.
  EXPECT_FALSE(ShmByteRing::attach(aligned_base(region), 256).valid());
  EXPECT_FALSE(ShmByteRing::attach(nullptr, 128).valid());
}

TEST(ShmRing, WrapAroundPreservesBytes) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  // Chunks of 48 against a capacity of 64 force the copy to split at
  // the physical end of the buffer on most iterations.
  std::string sent, received;
  char out[kCap];
  for (int i = 0; i < 100; ++i) {
    std::string chunk;
    for (int j = 0; j < 48; ++j)
      chunk.push_back(static_cast<char>('A' + (i + j) % 26));
    ASSERT_EQ(ring.try_write(chunk.data(), chunk.size()), chunk.size());
    sent += chunk;
    const std::size_t r = ring.try_read(out, sizeof out);
    ASSERT_EQ(r, chunk.size());
    received.append(out, r);
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_EQ(ring.writable(), kCap);
}

TEST(ShmRing, PartialWriteWhenNearlyFull) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  const std::string big(100, 'x');
  EXPECT_EQ(ring.try_write(big.data(), big.size()), kCap);  // clipped
  EXPECT_EQ(ring.try_write(big.data(), big.size()), 0u);    // full
  EXPECT_EQ(ring.writable(), 0u);

  char buf[16];
  EXPECT_EQ(ring.try_read(buf, sizeof buf), sizeof buf);
  EXPECT_EQ(ring.writable(), sizeof buf);
  EXPECT_EQ(ring.try_write(big.data(), big.size()), sizeof buf);
}

TEST(ShmRing, BackpressureBlocksUntilDrained) {
  constexpr std::size_t kCap = 64;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  // Producer: 8 KiB of a counted pattern through a 64-byte ring — it
  // must block on backpressure hundreds of times and resume each time
  // the consumer frees space.
  constexpr std::size_t kTotal = 8192;
  std::thread producer([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const char byte = static_cast<char>(sent % 251);
      if (ring.try_write(&byte, 1) == 1) {
        ++sent;
      } else {
        ring.wait_writable(1000);
      }
    }
  });

  std::size_t got = 0;
  bool in_order = true;
  while (got < kTotal) {
    char buf[kCap];
    const std::size_t r = ring.try_read(buf, sizeof buf);
    if (r == 0) {
      ring.wait_readable(1000);
      continue;
    }
    for (std::size_t i = 0; i < r; ++i)
      in_order = in_order && buf[i] == static_cast<char>((got + i) % 251);
    got += r;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(got, kTotal);
}

TEST(ShmRing, TwoThreadHammer) {
  // Variable-sized writes against variable-sized reads, checked as one
  // continuous byte stream. Run under TSan this doubles as the data-race
  // proof for the publish/consume protocol.
  constexpr std::size_t kCap = 256;
  constexpr std::size_t kTotal = 1 << 20;
  std::vector<char> region = ring_region(kCap);
  ShmByteRing ring = ShmByteRing::init(aligned_base(region), kCap);
  ASSERT_TRUE(ring.valid());

  std::thread producer([&] {
    std::size_t sent = 0;
    std::uint32_t rng = 0x9e3779b9;
    char chunk[191];
    while (sent < kTotal) {
      rng = rng * 1664525 + 1013904223;
      std::size_t want = 1 + rng % sizeof(chunk);
      want = std::min(want, kTotal - sent);
      for (std::size_t i = 0; i < want; ++i)
        chunk[i] = static_cast<char>((sent + i) % 251);
      std::size_t off = 0;
      while (off < want) {
        const std::size_t w = ring.try_write(chunk + off, want - off);
        if (w == 0)
          ring.wait_writable(1000);
        else
          off += w;
      }
      sent += want;
    }
  });

  std::size_t got = 0;
  bool ok = true;
  std::uint32_t rng = 0xdeadbeef;
  char buf[137];
  while (got < kTotal) {
    rng = rng * 1664525 + 1013904223;
    const std::size_t want = 1 + rng % sizeof(buf);
    const std::size_t r = ring.try_read(buf, want);
    if (r == 0) {
      ring.wait_readable(1000);
      continue;
    }
    for (std::size_t i = 0; i < r; ++i)
      ok = ok && buf[i] == static_cast<char>((got + i) % 251);
    got += r;
  }
  producer.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, kTotal);
}

// ---------------------------------------------------------------------------
// ShmServe: handshake and session behaviour over a real segment.
// ---------------------------------------------------------------------------

/// Serves sessions on a background thread until destruction.
class ServerFixture {
 public:
  explicit ServerFixture(const std::string& name,
                         std::size_t ring_bytes = 1 << 16) {
    server_ = std::make_unique<shm::ShmServer>(engine_, eng::ServeConfig{},
                                               name, ring_bytes);
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() {
    server_->shutdown();
    thread_.join();
    server_.reset();
  }

  eng::Engine& engine() { return engine_; }

 private:
  eng::Engine engine_{eng::EngineOptions{}};
  std::unique_ptr<shm::ShmServer> server_;
  std::thread thread_;
};

bool connect_with_retry(shm::ShmClient* client, const std::string& name,
                        std::string* error) {
  // The slot may still be in its post-session reset window, and after a
  // vanished client the server only probes the pid on wait timeouts —
  // allow a few seconds, like an interactive CLI retry would.
  for (int i = 0; i < 600; ++i) {
    if (client->connect(name, error)) return true;
    ::usleep(5 * 1000);
  }
  return false;
}

TEST(ShmServe, NameNormalization) {
  std::string out, err;
  EXPECT_TRUE(shm::normalize_shm_name("covers", &out, &err));
  EXPECT_EQ(out, "/covers");
  EXPECT_TRUE(shm::normalize_shm_name("/covers", &out, &err));
  EXPECT_EQ(out, "/covers");
  EXPECT_FALSE(shm::normalize_shm_name("", &out, &err));
  EXPECT_FALSE(shm::normalize_shm_name("a/b", &out, &err));
  EXPECT_FALSE(shm::normalize_shm_name(std::string(300, 'x'), &out, &err));
}

TEST(ShmServe, ConnectRejectsMissingSegment) {
  shm::ShmClient client;
  std::string error;
  EXPECT_FALSE(client.connect(unique_shm_name("missing"), &error));
  EXPECT_FALSE(error.empty());
}

TEST(ShmServe, ConnectRejectsTornSegment) {
  // Hand-craft segments that fail each handshake stage: wrong magic
  // (foreign or mid-construction), wrong version, wrong capacity
  // geometry, and a header that claims more than the file holds.
  const std::string name = unique_shm_name("torn");
  const std::string path = "/" + name;

  struct Case {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t capacity;
    std::size_t file_bytes;
  };
  const std::size_t full = shm::segment_bytes(1 << 16);
  const Case cases[] = {
      {0x646145646145ULL, shm::kShmVersion, 1 << 16, full},  // bad magic
      {shm::kShmMagic, shm::kShmVersion + 7, 1 << 16, full},  // bad version
      {shm::kShmMagic, shm::kShmVersion, (1 << 16) + 13, full},  // bad cap
      {shm::kShmMagic, shm::kShmVersion, 1 << 16,
       sizeof(shm::ShmSegmentHeader)},  // truncated file
  };

  for (const Case& c : cases) {
    ::shm_unlink(path.c_str());
    const int fd = ::shm_open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(c.file_bytes)), 0);
    void* mem = ::mmap(nullptr, sizeof(shm::ShmSegmentHeader),
                       PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ASSERT_NE(mem, MAP_FAILED);
    auto* header = new (mem) shm::ShmSegmentHeader();
    header->version = c.version;
    header->ring_capacity = c.capacity;
    header->server_pid.store(static_cast<std::uint32_t>(::getpid()),
                             std::memory_order_relaxed);
    header->magic.store(c.magic, std::memory_order_release);
    ::munmap(mem, sizeof(shm::ShmSegmentHeader));
    ::close(fd);

    shm::ShmClient client;
    std::string error;
    EXPECT_FALSE(client.connect(name, &error))
        << "segment with magic=" << c.magic << " version=" << c.version
        << " capacity=" << c.capacity << " bytes=" << c.file_bytes
        << " must be rejected";
    EXPECT_FALSE(error.empty());
    ::shm_unlink(path.c_str());
  }
}

TEST(ShmServe, RoundTripAndSecondClientBusy) {
  const std::string name = unique_shm_name("busy");
  ServerFixture server(name);

  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&client, name, &error)) << error;

  // The slot is SPSC: a second live claimant must be turned away.
  shm::ShmClient second;
  EXPECT_FALSE(second.connect(name, &error));
  EXPECT_NE(error.find("busy"), std::string::npos) << error;

  ASSERT_TRUE(client.send_line("{\"algo\":\"construct\",\"n\":7}"));
  client.finish();
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_NE(line.find("\"id\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_FALSE(client.read_line(&line));  // EOF after finish()
  // A clean end-of-stream is the server's eof mark, not an abort.
  EXPECT_TRUE(client.server_finished());
  client.close();
}

TEST(ShmServe, ProcStartTimeIdentity) {
#ifdef __linux__
  // Our own start time must be readable — it is the anti-pid-reuse
  // token every liveness probe folds in.
  EXPECT_NE(shm::proc_start_time(static_cast<std::uint32_t>(::getpid())),
            0u);
#endif
  // A pid that cannot exist has no start time.
  EXPECT_EQ(shm::proc_start_time(0), 0u);
}

TEST(ShmServe, SecondServerOnLiveNameRejected) {
  const std::string name = unique_shm_name("taken");
  ServerFixture server(name);

  // The live server holds an exclusive flock on its segment for its
  // whole lifetime, so a second server must be turned away even
  // without looking at the header.
  eng::Engine other{eng::EngineOptions{}};
  try {
    shm::ShmServer second(other, {}, name);
    FAIL() << "second server on a live name must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already being served"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShmServe, ZeroMagicLeftoverRecycledAfterGrace) {
  // A segment whose creator died before publishing the magic: nobody
  // holds its lock and the magic never appears, so after the grace
  // window a new server recycles the name instead of failing forever.
  const std::string name = unique_shm_name("zeromagic");
  const std::string path = "/" + name;
  ::shm_unlink(path.c_str());
  const int fd = ::shm_open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::ftruncate(fd, static_cast<off_t>(sizeof(shm::ShmSegmentHeader))), 0);
  ::close(fd);

  eng::Engine engine{eng::EngineOptions{}};
  shm::ShmServer server(engine, {}, name);  // must not throw
  EXPECT_EQ(server.name(), path);
}

TEST(ShmServe, PumpedClientReassemblesSplitLines) {
  // The `ccov client --shm` pump pattern: interleave nonblocking sends
  // with drains into ONE buffer, then keep draining that same buffer
  // through read_some after finish(). Rings far smaller than the
  // response stream force every drain to land mid-line, which is
  // exactly the case that used to tear a line between the local buffer
  // and read_line's internal one.
  const std::vector<std::string> script = {
      "{\"algo\":\"construct\",\"n\":12}", "{\"algo\":\"construct\",\"n\":15}",
      "{\"algo\":\"construct\",\"n\":12}", "{\"op\":\"stats\"}",
      "{\"algo\":\"construct\",\"n\":13}",
  };
  std::string script_text;
  for (const auto& l : script) script_text += l + "\n";

  // Reference bytes through the stdio transport on a fresh engine.
  eng::Engine reference{eng::EngineOptions{}};
  std::istringstream in(script_text);
  std::ostringstream out;
  eng::serve_loop(in, out, reference, eng::ServeConfig{});
  const std::string expected = out.str();
  ASSERT_GT(expected.size(), 512u) << "script must overflow the rings";

  const std::string name = unique_shm_name("pump");
  ServerFixture server(name, /*ring_bytes=*/256);
  shm::ShmClient client;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&client, name, &error)) << error;

  std::string got;
  for (const auto& l : script) {
    const std::string line = l + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      off += client.try_send(line.data() + off, line.size() - off);
      client.drain_available(&got);
      if (off < line.size()) {
        ASSERT_TRUE(client.ok());
        client.wait_send(50);
      }
    }
  }
  client.finish();
  while (client.read_some(&got) > 0) {
  }
  EXPECT_TRUE(client.server_finished());
  client.close();

  EXPECT_EQ(got, expected)
      << "pumped drains must reassemble to the exact stdio byte stream";
}

TEST(ShmServe, SlotRecyclesAcrossSessions) {
  const std::string name = unique_shm_name("recycle");
  ServerFixture server(name);

  for (int session = 0; session < 3; ++session) {
    shm::ShmClient client;
    std::string error;
    ASSERT_TRUE(connect_with_retry(&client, name, &error))
        << "session " << session << ": " << error;
    ASSERT_TRUE(client.send_line("{\"algo\":\"construct\",\"n\":9}"));
    client.finish();
    std::string line;
    ASSERT_TRUE(client.read_line(&line)) << "session " << session;
    // ids restart per session: each session is a fresh serve_session.
    EXPECT_NE(line.find("\"id\":0"), std::string::npos) << line;
    client.close();
  }
}

TEST(ShmServe, DestroyedServerDisarmsTheSignalHandler) {
  const std::string name = unique_shm_name("disarm");
  eng::Engine engine;
  EXPECT_FALSE(signal_reaches_reused_wake_fd([&engine, &name] {
    return std::make_unique<shm::ShmServer>(engine, eng::ServeConfig{}, name);
  }));
}

// ---------------------------------------------------------------------------
// ShmProcess: fork()'d end-to-end byte identity. Kept out of the TSan
// suites (fork + threads don't mix under TSan).
// ---------------------------------------------------------------------------

const char* const kScriptLines[] = {
    "{\"algo\":\"construct\",\"n\":7}",
    "{\"algo\":\"construct\",\"n\":12}",
    "{\"algo\":\"construct\",\"n\":7}",  // cache hit second time around
    "this is not json",
    "{\"algo\":\"no-such-algorithm\",\"n\":7}",
};

TEST(ShmProcess, ForkedClientMatchesStdioBytes) {
  const std::string name = unique_shm_name("fork");
  ServerFixture server(name);

  // Reference bytes: the same script through the stdio transport on a
  // fresh engine (so cache evolution matches the shm server's).
  std::string script;
  for (const char* l : kScriptLines) script += std::string(l) + "\n";
  eng::Engine reference{eng::EngineOptions{}};
  std::istringstream in(script);
  std::ostringstream out;
  eng::serve_loop(in, out, reference, eng::ServeConfig{});
  const std::string expected = out.str();
  ASSERT_FALSE(expected.empty());

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: drive the session from a genuinely separate process and
    // stream every response byte back over the pipe.
    ::close(pipefd[0]);
    shm::ShmClient client;
    std::string error;
    if (!connect_with_retry(&client, name, &error)) ::_exit(2);
    for (const char* l : kScriptLines)
      if (!client.send_line(l)) ::_exit(3);
    client.finish();
    std::string line;
    while (client.read_line(&line)) {
      line += "\n";
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t w =
            ::write(pipefd[1], line.data() + off, line.size() - off);
        if (w <= 0) ::_exit(4);
        off += static_cast<std::size_t>(w);
      }
    }
    client.close();
    ::close(pipefd[1]);
    ::_exit(0);
  }

  ::close(pipefd[1]);
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(pipefd[0], buf, sizeof buf);
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
  }
  ::close(pipefd[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(got, expected)
      << "shm transport must produce byte-identical serve output";
}

TEST(ShmProcess, StaleSegmentRecycledAfterServerDeath) {
  // A server that dies without running its destructor (crash, SIGKILL)
  // leaves the segment behind with a published magic and a dead pid.
  // The kernel drops its flock with the process, so the next server
  // must probe the header, judge it stale and recycle the name.
  const std::string name = unique_shm_name("deadserver");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    eng::Engine engine{eng::EngineOptions{}};
    shm::ShmServer server(engine, {}, name);
    ::_exit(0);  // _exit skips the destructor: the segment stays linked
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  eng::Engine engine{eng::EngineOptions{}};
  shm::ShmServer server(engine, {}, name);  // recycles; must not throw
  EXPECT_EQ(server.name(), "/" + name);
}

TEST(ShmProcess, VanishedClientFreesSlot) {
  const std::string name = unique_shm_name("vanish");
  ServerFixture server(name);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: claim the slot, send half a session, then die without
    // detaching — the rude-client case the pid probe exists for.
    shm::ShmClient client;
    std::string error;
    if (!connect_with_retry(&client, name, &error)) ::_exit(2);
    client.send_line("{\"algo\":\"construct\",\"n\":7}");
    std::string line;
    client.read_line(&line);
    ::_exit(0);  // no close(): the slot still holds our pid
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // The server's liveness probe must notice the dead pid, tear the
  // session down and reopen the slot for a fresh client.
  shm::ShmClient next;
  std::string error;
  ASSERT_TRUE(connect_with_retry(&next, name, &error)) << error;
  ASSERT_TRUE(next.send_line("{\"algo\":\"construct\",\"n\":9}"));
  next.finish();
  std::string line;
  EXPECT_TRUE(next.read_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  next.close();

  EXPECT_GE(server.engine()
                .metrics()
                .counter("ccov_shm_clients_vanished_total", "")
                .value(),
            1u);
}

}  // namespace
