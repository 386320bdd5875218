// Robustness tests: the FailPoint fault-injection registry, request
// deadlines / cooperative cancellation in the solver and engine, and
// seeded chaos schedules that arm random failpoint combinations against
// full serve sessions over the stdio, TCP and shared-memory transports.
//
// Invariants every chaos schedule must preserve, whatever faults fire:
//  - the process never crashes (the test binary surviving IS the check);
//  - every response line that arrives carries sequential ids from 0 —
//    requests are answered or diagnosed in input order, never silently
//    skipped or reordered (a torn transport may truncate the tail);
//  - the server outlives the faulted session and serves the next
//    clean client normally;
//  - an interrupted snapshot save never corrupts the previous snapshot.
//
// The FailPoint and Deadline suites run in every build; the Chaos
// suites skip unless the binary was configured with -DCCOV_FAILPOINTS=ON
// (the seams compile to `(false)` otherwise).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "ccov/covering/solver.hpp"
#include "ccov/engine/cache.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/shm.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/util/failpoint.hpp"
#include "ccov/util/thread_pool.hpp"
#include "ccov/util/timer.hpp"

namespace cov = ccov::covering;
namespace eng = ccov::engine;
namespace net = ccov::engine::net;
namespace shm = ccov::engine::shm;
namespace fp = ccov::util::failpoint;

using ccov::util::CancelToken;
using ccov::util::Deadline;

namespace {

double elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// RAII: whatever a test armed is gone when the test ends, even on
/// assertion failure.
struct ClearAllGuard {
  ~ClearAllGuard() { fp::clear_all(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// FailPoint: the registry itself (compiled in every build).
// ---------------------------------------------------------------------------

TEST(FailPoint, UnknownNamesAreOff) {
  ClearAllGuard guard;
  EXPECT_FALSE(fp::should_fail("no_such_point"));
  EXPECT_EQ(fp::hits("no_such_point"), 0u);
  EXPECT_TRUE(fp::names().empty());
}

TEST(FailPoint, ErrorModeFiresAndCounts) {
  ClearAllGuard guard;
  std::string err;
  ASSERT_TRUE(fp::set("p", "error", &err)) << err;
  EXPECT_TRUE(fp::should_fail("p"));
  EXPECT_TRUE(fp::should_fail("p"));
  EXPECT_EQ(fp::hits("p"), 2u);
  ASSERT_EQ(fp::names().size(), 1u);
  EXPECT_EQ(fp::names()[0], "p");
  fp::clear("p");
  EXPECT_FALSE(fp::should_fail("p"));
  EXPECT_EQ(fp::hits("p"), 0u);
}

TEST(FailPoint, CountSuffixBoundsTheFirings) {
  ClearAllGuard guard;
  ASSERT_TRUE(fp::set("p", "error*2"));
  EXPECT_TRUE(fp::should_fail("p"));
  EXPECT_TRUE(fp::should_fail("p"));
  EXPECT_FALSE(fp::should_fail("p"));  // exhausted: back to off
  EXPECT_FALSE(fp::should_fail("p"));
  EXPECT_EQ(fp::hits("p"), 2u);
}

TEST(FailPoint, DelayModeSleepsThenProceeds) {
  ClearAllGuard guard;
  ASSERT_TRUE(fp::set("p", "delay:30"));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fp::should_fail("p"));  // delay is not a failure
  EXPECT_GE(elapsed_ms_since(t0), 25.0);
  EXPECT_EQ(fp::hits("p"), 1u);
}

TEST(FailPoint, MalformedSpecsAreRejectedAndChangeNothing) {
  ClearAllGuard guard;
  ASSERT_TRUE(fp::set("p", "error"));
  std::string err;
  for (const char* bad :
       {"", "bogus", "delay", "delay:", "delay:x", "error*", "error*x",
        "delay:5*", "crash*0x2"}) {
    err.clear();
    EXPECT_FALSE(fp::set("p", bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  EXPECT_TRUE(fp::should_fail("p"));  // previous state survived
}

TEST(FailPoint, ConfigureParsesTheEnvSyntax) {
  ClearAllGuard guard;
  std::string err;
  ASSERT_TRUE(fp::configure("a=error;b=delay:1*3;;c=off", &err)) << err;
  EXPECT_TRUE(fp::should_fail("a"));
  EXPECT_FALSE(fp::should_fail("b"));
  EXPECT_FALSE(fp::should_fail("c"));
  EXPECT_FALSE(fp::configure("a=error;broken", &err));
  EXPECT_FALSE(err.empty());
  fp::clear_all();
  EXPECT_FALSE(fp::should_fail("a"));
  EXPECT_TRUE(fp::names().empty());
}

TEST(FailPoint, ValidateAcceptsWellFormedConfigsWithoutArming) {
  ClearAllGuard guard;
  std::string err;
  EXPECT_TRUE(fp::validate("a=error;b=delay:1*3;;c=off;d=crash*2", &err))
      << err;
  // Parse-only: nothing was armed, nothing fires.
  EXPECT_TRUE(fp::names().empty());
  EXPECT_FALSE(fp::should_fail("a"));
}

TEST(FailPoint, ValidateRejectsUnknownActions) {
  std::string err;
  EXPECT_FALSE(fp::validate("net_read=explode", &err));
  EXPECT_NE(err.find("unknown spec"), std::string::npos) << err;
  EXPECT_TRUE(fp::names().empty());  // the valid prefix is NOT armed either
}

TEST(FailPoint, ValidateRejectsBadCounts) {
  std::string err;
  EXPECT_FALSE(fp::validate("a=error*x", &err));
  EXPECT_NE(err.find("bad count"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(fp::validate("a=error;b=delay:5*-1", &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(fp::validate("noequals", &err));
  EXPECT_NE(err.find("bad entry"), std::string::npos) << err;
}

TEST(FailPointDeathTest, CrashModeAbortsOnce) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClearAllGuard guard;
  ASSERT_TRUE(fp::set("boom", "crash"));
  EXPECT_DEATH((void)fp::should_fail("boom"), "");
  // In the parent the point is still armed for its single firing; clear
  // it rather than firing it here.
  fp::clear("boom");
}

// ---------------------------------------------------------------------------
// Deadline / CancelToken primitives.
// ---------------------------------------------------------------------------

TEST(Deadline, UnsetNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.set());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(Deadline::after_ms(0).set());
  EXPECT_FALSE(Deadline::after_ms(-5).set());
}

TEST(Deadline, AfterMsExpiresOnSchedule) {
  const Deadline d = Deadline::after_ms(40);
  ASSERT_TRUE(d.set());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_ms(), 0);
}

TEST(Deadline, CancelTokenLifecycle) {
  CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  tok.cancel();
  EXPECT_TRUE(tok.cancelled());
  tok.cancel();  // idempotent
  EXPECT_TRUE(tok.cancelled());
  tok.reset();
  EXPECT_FALSE(tok.cancelled());
}

// ---------------------------------------------------------------------------
// Deadline / cancellation in the solver.
// ---------------------------------------------------------------------------

namespace {

/// n=10 with budget 13 (= rho(10)) is the workhorse long search: it
/// neither finds a cover nor exhausts within the default 200M-node
/// budget, so without a deadline it grinds for seconds — perfect for
/// proving an interrupt actually interrupted.
constexpr std::uint32_t kHardN = 10;
constexpr std::uint64_t kHardBudget = 13;

}  // namespace

TEST(Deadline, SolverStopsAtTheDeadline) {
  cov::SolverOptions opts;
  opts.deadline = Deadline::after_ms(50);
  const auto t0 = std::chrono::steady_clock::now();
  const cov::SolverResult res =
      cov::solve_with_budget(kHardN, kHardBudget, opts);
  EXPECT_LT(elapsed_ms_since(t0), 2000.0)
      << "a 50ms deadline must not run for seconds";
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.cancelled);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted) << "a timeout is never an infeasibility proof";
  EXPECT_GT(res.nodes, 0u);
}

TEST(Deadline, ParallelSolverStopsAtTheDeadline) {
  cov::SolverOptions opts;
  opts.deadline = Deadline::after_ms(50);
  const auto t0 = std::chrono::steady_clock::now();
  const cov::SolverResult res =
      cov::solve_with_budget_parallel(kHardN, kHardBudget, opts, 2);
  EXPECT_LT(elapsed_ms_since(t0), 3000.0);
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
}

TEST(Deadline, CancelTokenAbortsTheSolverMidSearch) {
  CancelToken tok;
  cov::SolverOptions opts;
  opts.cancel = &tok;
  std::thread killer([&tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    tok.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const cov::SolverResult res =
      cov::solve_with_budget(kHardN, kHardBudget, opts);
  killer.join();
  EXPECT_LT(elapsed_ms_since(t0), 2000.0)
      << "cancellation latency is bounded by the ~4k-node poll interval";
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.timed_out);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
}

TEST(Deadline, CancelTokenAbortsTheParallelSolver) {
  CancelToken tok;
  cov::SolverOptions opts;
  opts.cancel = &tok;
  std::thread killer([&tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    tok.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const cov::SolverResult res =
      cov::solve_with_budget_parallel(kHardN, kHardBudget, opts, 2);
  killer.join();
  EXPECT_LT(elapsed_ms_since(t0), 3000.0);
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
}

TEST(Deadline, AnAlreadyCancelledTokenStopsTheSearchAlmostImmediately) {
  CancelToken tok;
  tok.cancel();
  cov::SolverOptions opts;
  opts.cancel = &tok;
  const cov::SolverResult res =
      cov::solve_with_budget(kHardN, kHardBudget, opts);
  EXPECT_TRUE(res.cancelled);
  // The poll runs every 4096 nodes, so a pre-cancelled search visits at
  // most a few poll intervals' worth of nodes.
  EXPECT_LE(res.nodes, 3u * 4096u);
}

TEST(Deadline, GoldenNodeCountsAreByteIdenticalWithoutADeadline) {
  // Pinned against the pre-deadline solver (PR 7, commit 6bdf933): the
  // amortized interrupt poll must not change what the search visits.
  // Any drift here means unset deadlines are no longer free.
  const struct {
    std::uint32_t n;
    std::uint64_t budget;
    std::uint64_t nodes;
    bool found;
  } golden[] = {
      {8, 9, 24, true},
      {9, 10, 72, true},
      {11, 15, 54, true},
      {13, 21, 819, true},
      {9, 6, 1, false},  // exhausted infeasibility proof
  };
  CancelToken never_fired;
  for (const auto& g : golden) {
    // Default options: no deadline, no token.
    const cov::SolverResult plain = cov::solve_with_budget(g.n, g.budget);
    EXPECT_EQ(plain.nodes, g.nodes) << "n=" << g.n;
    EXPECT_EQ(plain.found, g.found) << "n=" << g.n;
    EXPECT_TRUE(plain.exhausted) << "n=" << g.n;
    EXPECT_FALSE(plain.timed_out);
    EXPECT_FALSE(plain.cancelled);
    // An unset deadline plus a live-but-quiet token: still identical.
    cov::SolverOptions opts;
    opts.deadline = Deadline::after_ms(0);
    opts.cancel = &never_fired;
    const cov::SolverResult armed = cov::solve_with_budget(g.n, g.budget, opts);
    EXPECT_EQ(armed.nodes, g.nodes) << "n=" << g.n;
    EXPECT_EQ(armed.found, g.found) << "n=" << g.n;
  }
}

// ---------------------------------------------------------------------------
// Deadline / degradation / shedding through the engine and serve stack.
// ---------------------------------------------------------------------------

namespace {

eng::CoverRequest hard_request(std::uint64_t deadline_ms) {
  eng::CoverRequest req;
  req.algorithm = "solve";
  req.n = kHardN;
  req.budget = kHardBudget;
  req.deadline_ms = deadline_ms;
  return req;
}

}  // namespace

TEST(Deadline, EngineResolvesDeadlineMsAndNeverCachesTimeouts) {
  eng::Engine engine;
  const eng::CoverResponse resp = engine.run(hard_request(40));
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.found);
  EXPECT_FALSE(resp.degraded);
  EXPECT_FALSE(eng::CoverCache::should_cache(resp));
  EXPECT_EQ(engine.cache().size(), 0u) << "deadline casualties must not pin";
  // A repeat is recomputed, not served from a poisoned cache entry.
  const eng::CoverResponse again = engine.run(hard_request(40));
  EXPECT_FALSE(again.cache_hit);
  EXPECT_TRUE(again.timed_out);
}

TEST(Deadline, GreedyFallbackAnswersTimedOutSolvesWhenEnabled) {
  eng::EngineOptions opts;
  opts.fallback_greedy = true;
  eng::Engine engine(opts);
  eng::CoverRequest req = hard_request(40);
  req.validate = true;
  const eng::CoverResponse resp = engine.run(req);
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.timed_out);
  EXPECT_TRUE(resp.degraded);
  EXPECT_TRUE(resp.found) << "degradation means an answer, not a shrug";
  EXPECT_TRUE(resp.validated);
  EXPECT_TRUE(resp.valid) << "a degraded cover is still a real cover";
  EXPECT_FALSE(eng::CoverCache::should_cache(resp))
      << "a deliberately non-minimal answer must never be cached";
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(Deadline, ShutdownCancellationSkipsTheGreedyFallback) {
  // --fallback greedy degrades *timeouts*; a shutdown cancel must stay
  // fast and answer bare, not run one more algorithm.
  eng::EngineOptions opts;
  opts.fallback_greedy = true;
  eng::Engine engine(opts);
  CancelToken tok;
  tok.cancel();
  eng::CoverRequest req = hard_request(0);
  req.cancel = &tok;
  const eng::CoverResponse resp = engine.run(req);
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.timed_out);  // rendered the same as a timeout
  EXPECT_FALSE(resp.degraded);
  EXPECT_FALSE(resp.found);
}

TEST(Deadline, ServeAppliesTheDefaultDeadlineAndRendersFlagsOnlyWhenRaised) {
  eng::Engine engine;
  eng::ServeConfig config;
  config.default_deadline_ms = 40;
  std::istringstream in(
      "{\"algo\":\"solve\",\"n\":10,\"budget\":13}\n"
      "{\"algo\":\"construct\",\"n\":9}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
  std::istringstream lines(out.str());
  std::string slow, fast;
  ASSERT_TRUE(std::getline(lines, slow));
  ASSERT_TRUE(std::getline(lines, fast));
  EXPECT_EQ(slow.rfind("{\"id\":0,", 0), 0u) << slow;
  EXPECT_NE(slow.find("\"timed_out\":true"), std::string::npos) << slow;
  EXPECT_EQ(fast.rfind("{\"id\":1,", 0), 0u) << fast;
  // Byte-identity: flags render only when raised, so a fast request's
  // line is exactly what a build without deadlines produced.
  EXPECT_EQ(fast.find("timed_out"), std::string::npos) << fast;
  EXPECT_EQ(fast.find("degraded"), std::string::npos) << fast;
  EXPECT_EQ(fast.find("shed"), std::string::npos) << fast;
  EXPECT_EQ(engine.metrics().value("ccov_requests_timed_out_total"), 1);
}

TEST(Deadline, PerRequestDeadlineOverridesTheDefault) {
  eng::Engine engine;
  eng::ServeConfig config;
  config.default_deadline_ms = 600000;  // effectively none
  std::istringstream in("{\"algo\":\"solve\",\"n\":10,\"budget\":13,"
                        "\"deadline_ms\":40}\n");
  std::ostringstream out;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
  EXPECT_LT(elapsed_ms_since(t0), 5000.0);
  EXPECT_NE(out.str().find("\"timed_out\":true"), std::string::npos)
      << out.str();
}

TEST(Deadline, QueuedRequestsWhoseDeadlineExpiredAreShedInBand) {
  // Pipelined session (jobs=2, batch=1): the first flush grinds until
  // its 400ms deadline while the second request — accepted immediately
  // by the parser thread with only 40ms of life — waits behind it. By
  // the time its flush job runs, it is dead: the server must say so
  // in-band, in order, without wasting a solve on it.
  eng::Engine engine;
  eng::ServeConfig config;
  config.jobs = 2;
  std::istringstream in(
      "{\"algo\":\"solve\",\"n\":10,\"budget\":13,\"deadline_ms\":400}\n"
      "{\"algo\":\"construct\",\"n\":9,\"deadline_ms\":40}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_NE(first.find("\"timed_out\":true"), std::string::npos) << first;
  EXPECT_EQ(second.rfind("{\"id\":1,", 0), 0u) << second;
  EXPECT_NE(second.find("\"shed\":true"), std::string::npos) << second;
  EXPECT_EQ(second.find("\"cycles\""), std::string::npos)
      << "a shed request must not carry a cover: " << second;
  EXPECT_EQ(
      engine.metrics().counter("ccov_requests_shed_total", "").value(), 1u);
}

TEST(Deadline, SessionCancelTokenStopsTheSessionBetweenLines) {
  // A pre-cancelled server token: the session must answer nothing and
  // exit immediately — the between-lines check, which bounds shutdown
  // latency for transports whose reads cannot be woken.
  eng::Engine engine;
  eng::ServeConfig config;
  CancelToken tok;
  tok.cancel();
  config.cancel = &tok;
  std::istringstream in("{\"algo\":\"construct\",\"n\":9}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
  EXPECT_TRUE(out.str().empty()) << out.str();
}

// ---------------------------------------------------------------------------
// Chaos: seeded random failpoint schedules against full serve sessions.
// ---------------------------------------------------------------------------

namespace {

/// The chaos workload: compute requests (one D_n pair to exercise the
/// cache), a garbage line (in-band error path), a control verb and a
/// save (snapshot seams). Six lines, ids 0..5.
const char kChaosWorkload[] =
    "{\"algo\":\"construct\",\"n\":9}\n"
    "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[0,3],[1,4]]}\n"
    "this is not json\n"
    "{\"op\":\"stats\"}\n"
    "{\"algo\":\"greedy\",\"n\":9,\"demand\":[[2,5],[3,6]]}\n"
    "{\"op\":\"save\"}\n";
constexpr std::size_t kChaosWorkloadLines = 6;

/// Arm a random schedule drawn from `points`. Specs mix error (with
/// small counts, so sessions can make progress past the faults), short
/// delays (to shake scheduling) and off. Returns a description for
/// failure messages.
std::string arm_random_schedule(std::mt19937* rng,
                                const std::vector<std::string>& points) {
  std::string desc;
  for (const std::string& point : points) {
    static const char* const kSpecs[] = {
        "off", "error*1", "error*2", "delay:5*2", "delay:20*1", "off",
    };
    const std::string spec = kSpecs[(*rng)() % (sizeof(kSpecs) /
                                                sizeof(kSpecs[0]))];
    if (spec == "off") continue;
    EXPECT_TRUE(fp::set(point, spec));
    desc += point + "=" + spec + ";";
  }
  return desc.empty() ? "(all off)" : desc;
}

/// Every received line must be `{"id":k,...}` for k = 0,1,2,... — an
/// in-order, gap-free prefix of the request stream. Returns how many
/// lines arrived.
std::size_t expect_ordered_prefix(const std::string& output,
                                  const std::string& context) {
  std::istringstream lines(output);
  std::string line;
  std::size_t next = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "{\"id\":" + std::to_string(next) + ",";
    EXPECT_EQ(line.rfind(prefix, 0), 0u)
        << context << "\nexpected response id " << next << ", got: " << line;
    EXPECT_NE(line.find("\"ok\":"), std::string::npos)
        << context << "\nnot a response/diagnostic line: " << line;
    ++next;
  }
  return next;
}

std::string chaos_tmp_snapshot(const char* tag, int seed) {
  namespace fs = std::filesystem;
  return (fs::path(testing::TempDir()) /
          ("ccov_chaos_" + std::string(tag) + "_" + std::to_string(seed) +
           "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

}  // namespace

TEST(Chaos, StdioSchedulesAnswerEveryLineInOrder) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  // The stdio transport has no read/write seams, so every line must be
  // answered whatever fires: cache drops, pipeline stalls, snapshot
  // failures all stay in-band.
  const std::vector<std::string> points = {"cache_insert", "pipeline_submit",
                                           "snapshot_open", "snapshot_write",
                                           "snapshot_fsync", "snapshot_rename"};
  for (int seed = 0; seed < 10; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    const std::string schedule = arm_random_schedule(&rng, points);
    eng::Engine engine;
    eng::ServeConfig config;
    config.jobs = 1 + rng() % 2;
    config.batch = 1 + rng() % 3;
    config.cache_file = chaos_tmp_snapshot("stdio", seed);
    std::istringstream in(kChaosWorkload);
    std::ostringstream out;
    ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0)
        << "seed " << seed << ": " << schedule;
    EXPECT_EQ(expect_ordered_prefix(out.str(),
                                    "seed " + std::to_string(seed) + ": " +
                                        schedule),
              kChaosWorkloadLines)
        << out.str();
    fp::clear_all();
    // Whatever the schedule did to the save verb, the snapshot path
    // holds its invariant: the file either loads cleanly or is absent.
    if (std::filesystem::exists(config.cache_file)) {
      eng::CoverCache check(256);
      EXPECT_NO_THROW(eng::load_snapshot_file(config.cache_file, check))
          << "seed " << seed << ": " << schedule;
      std::filesystem::remove(config.cache_file);
    }
  }
}

namespace {

/// Minimal blocking TCP test client (mirrors net_test.cpp).
class ChaosTcpClient {
 public:
  explicit ChaosTcpClient(std::uint16_t port) {
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
  ~ChaosTcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void send_text(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w = ::send(fd_, text.data() + off, text.size() - off, 0);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return;  // server-side fault tore the connection: fine
      off += static_cast<std::size_t>(w);
    }
  }
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }
  std::string read_to_eof() {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return buffer;
      buffer.append(chunk, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

}  // namespace

TEST(Chaos, TcpSchedulesNeverKillTheServer) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  const std::vector<std::string> points = {"net_read", "net_write",
                                           "cache_insert", "pipeline_submit"};
  eng::Engine engine;
  net::ServeServer server(engine, {});
  std::thread runner([&server] { server.run(); });
  for (int seed = 100; seed < 105; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    const std::string schedule = arm_random_schedule(&rng, points);
    {
      ChaosTcpClient client(server.port());
      ASSERT_TRUE(client.connected());
      client.send_text(kChaosWorkload);
      client.finish_sending();
      // A net fault may truncate the stream, but what arrives is an
      // in-order, gap-free prefix — no skipped, reordered or torn line.
      expect_ordered_prefix(client.read_to_eof(),
                            "seed " + std::to_string(seed) + ": " + schedule);
    }
    fp::clear_all();
    // The faulted session is gone; the server answers the next clean
    // client in full.
    ChaosTcpClient survivor(server.port());
    ASSERT_TRUE(survivor.connected());
    survivor.send_text("{\"algo\":\"construct\",\"n\":9}\n");
    survivor.finish_sending();
    const std::string got = survivor.read_to_eof();
    EXPECT_EQ(expect_ordered_prefix(got, "post-chaos survivor"), 1u) << got;
    EXPECT_NE(got.find("\"ok\":true"), std::string::npos) << got;
  }
  server.shutdown();
  runner.join();
}

TEST(Chaos, ShmSchedulesNeverKillTheServer) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  const std::string name =
      "ccov-chaos-" + std::to_string(::getpid());
  eng::Engine engine;
  shm::ShmServer server(engine, {}, name, 1 << 16);
  std::thread runner([&server] { server.run(); });
  const std::vector<std::string> points = {"shm_read", "shm_write",
                                           "futex_wait", "cache_insert"};
  for (int seed = 200; seed < 205; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    const std::string schedule = arm_random_schedule(&rng, points);
    {
      shm::ShmClient client;
      std::string error;
      bool connected = false;
      for (int i = 0; i < 600 && !connected; ++i) {
        connected = client.connect(name, &error);
        if (!connected) ::usleep(5 * 1000);
      }
      ASSERT_TRUE(connected) << "seed " << seed << ": " << error;
      std::istringstream lines(kChaosWorkload);
      std::string line;
      while (std::getline(lines, line)) {
        if (!client.send_line(line)) break;  // session died mid-fault: fine
      }
      client.finish();
      std::string rx, got;
      while (client.read_line(&rx)) got += rx + "\n";
      expect_ordered_prefix(got,
                            "seed " + std::to_string(seed) + ": " + schedule);
      client.close();
    }
    fp::clear_all();
    // Next clean session over the same segment round-trips in full.
    shm::ShmClient survivor;
    std::string error;
    bool connected = false;
    for (int i = 0; i < 600 && !connected; ++i) {
      connected = survivor.connect(name, &error);
      if (!connected) ::usleep(5 * 1000);
    }
    ASSERT_TRUE(connected) << "post-chaos reconnect, seed " << seed << ": "
                           << error;
    ASSERT_TRUE(survivor.send_line("{\"algo\":\"construct\",\"n\":9}"));
    survivor.finish();
    std::string line;
    ASSERT_TRUE(survivor.read_line(&line)) << "seed " << seed;
    EXPECT_EQ(line.rfind("{\"id\":0,", 0), 0u) << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    survivor.close();
  }
  server.shutdown();
  runner.join();
}

TEST(Chaos, SaveVerbReportsInjectedDiskFailuresInBand) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  const std::string path = chaos_tmp_snapshot("save", 0);
  eng::Engine engine;
  eng::ServeConfig config;
  config.cache_file = path;
  for (const char* point : {"snapshot_write", "snapshot_fsync",
                            "snapshot_rename"}) {
    ASSERT_TRUE(fp::set(point, "error*1"));
    std::istringstream in(
        "{\"algo\":\"construct\",\"n\":9}\n"
        "{\"op\":\"save\"}\n"
        "{\"op\":\"save\"}\n");
    std::ostringstream out;
    ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);
    std::istringstream lines(out.str());
    std::string compute, failed_save, ok_save;
    ASSERT_TRUE(std::getline(lines, compute));
    ASSERT_TRUE(std::getline(lines, failed_save));
    ASSERT_TRUE(std::getline(lines, ok_save));
    // The injected failure is a structured in-band answer, not silence
    // and not a dead session...
    EXPECT_EQ(failed_save.rfind("{\"id\":1,", 0), 0u) << failed_save;
    EXPECT_NE(failed_save.find("\"ok\":false"), std::string::npos)
        << point << ": " << failed_save;
    EXPECT_NE(failed_save.find("\"error\":"), std::string::npos)
        << point << ": " << failed_save;
    // ...and the very next save (failpoint exhausted) succeeds.
    EXPECT_NE(ok_save.find("\"ok\":true"), std::string::npos)
        << point << ": " << ok_save;
    eng::CoverCache check(256);
    EXPECT_GE(eng::load_snapshot_file(path, check), 1u) << point;
  }
  std::filesystem::remove(path);
}

TEST(Chaos, ThreadSpawnFailureJoinsTheStartedWorkers) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  // The seam fails the last spawn, so three workers are already running
  // when the constructor throws; leaving them joinable in workers_
  // would std::terminate the process.
  ASSERT_TRUE(fp::set("thread_spawn", "error*1"));
  EXPECT_THROW(ccov::util::ThreadPool pool(4), std::system_error);
  EXPECT_EQ(fp::hits("thread_spawn"), 1u);
  ccov::util::ThreadPool pool(4);  // exhausted: the next pool starts
  EXPECT_EQ(pool.size(), 4u);
}

TEST(Chaos, SolveParallelAnswersInBandWhenASpawnFails) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  ASSERT_TRUE(fp::set("thread_spawn", "error*1"));
  eng::Engine engine;
  std::istringstream in(
      "{\"algo\":\"solve-parallel\",\"n\":8,\"threads\":2}\n"
      "{\"algo\":\"solve-parallel\",\"n\":8,\"threads\":2}\n");
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, {}), 0);
  std::istringstream lines(out.str());
  std::string failed, answered;
  ASSERT_TRUE(std::getline(lines, failed));
  ASSERT_TRUE(std::getline(lines, answered));
  // The failed pool is an error answer for its own request only: the
  // session lives on and answers the next one (failpoint exhausted).
  EXPECT_EQ(failed.rfind("{\"id\":0,\"ok\":false,", 0), 0u) << failed;
  EXPECT_NE(failed.find("thread_spawn"), std::string::npos) << failed;
  EXPECT_EQ(answered.rfind("{\"id\":1,\"ok\":true,", 0), 0u) << answered;
  EXPECT_NE(answered.find("\"found\":true"), std::string::npos) << answered;
}

TEST(Chaos, PipelinedSessionRunsTheBatchInlineWhenThePoolCannotStart) {
  if (!fp::compiled())
    GTEST_SKIP() << "binary built without CCOV_FAILPOINTS=ON";
  ClearAllGuard guard;
  // Two batches of four distinct requests. The first batch finds no
  // pool and answers inline; the second starts the pool afresh.
  const std::string script =
      "{\"algo\":\"construct\",\"n\":9}\n"
      "{\"algo\":\"greedy\",\"n\":10}\n"
      "{\"algo\":\"solve\",\"n\":7}\n"
      "{\"algo\":\"triple\",\"n\":12}\n"
      "{\"algo\":\"construct\",\"n\":14}\n"
      "{\"algo\":\"emz\",\"n\":11}\n"
      "{\"algo\":\"solve\",\"n\":9}\n"
      "{\"algo\":\"greedy\",\"n\":13}\n";
  const auto serve = [&](std::size_t jobs) {
    eng::Engine engine;
    eng::ServeConfig config;
    config.jobs = jobs;
    config.batch = 4;
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(eng::serve_loop(in, out, engine, config), 0);
    return out.str();
  };
  const std::string inline_answers = serve(1);
  ASSERT_TRUE(fp::set("thread_spawn", "error*1"));
  const std::string pooled = serve(2);
  EXPECT_EQ(fp::hits("thread_spawn"), 1u);
  EXPECT_EQ(pooled, inline_answers);
  std::istringstream lines(pooled);
  std::size_t answered = 0;
  for (std::string line; std::getline(lines, line); ++answered) {
    const std::string head =
        "{\"id\":" + std::to_string(answered) + ",\"ok\":true,";
    EXPECT_EQ(line.rfind(head, 0), 0u) << line;
  }
  EXPECT_EQ(answered, 8u);
}
