#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ccov/util/cli.hpp"
#include "ccov/util/ints.hpp"
#include "ccov/util/pipeline.hpp"
#include "ccov/util/prng.hpp"
#include "ccov/util/table.hpp"
#include "ccov/util/thread_pool.hpp"
#include "ccov/util/timer.hpp"

namespace cu = ccov::util;

TEST(Ints, CeilDivExact) { EXPECT_EQ(cu::ceil_div(10, 5), 2); }
TEST(Ints, CeilDivRoundsUp) { EXPECT_EQ(cu::ceil_div(11, 5), 3); }
TEST(Ints, CeilDivZeroNumerator) { EXPECT_EQ(cu::ceil_div(0, 7), 0); }
TEST(Ints, ModPosPositive) { EXPECT_EQ(cu::mod_pos(7, 5), 2); }
TEST(Ints, ModPosNegative) { EXPECT_EQ(cu::mod_pos(-3, 5), 2); }
TEST(Ints, ModPosMultiple) { EXPECT_EQ(cu::mod_pos(-10, 5), 0); }
TEST(Ints, Gcd) { EXPECT_EQ(cu::gcd_of(12u, 18u), 6u); }
TEST(Ints, GcdCoprime) { EXPECT_EQ(cu::gcd_of(7u, 9u), 1u); }
TEST(Ints, GcdWithZero) { EXPECT_EQ(cu::gcd_of(0u, 5u), 5u); }
TEST(Ints, Choose2) {
  EXPECT_EQ(cu::choose2<std::uint64_t>(0), 0u);
  EXPECT_EQ(cu::choose2<std::uint64_t>(1), 0u);
  EXPECT_EQ(cu::choose2<std::uint64_t>(5), 10u);
  EXPECT_EQ(cu::choose2<std::uint64_t>(100), 4950u);
}

TEST(Prng, Deterministic) {
  cu::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}
TEST(Prng, SeedsDiffer) {
  cu::Xoshiro256 a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 10; ++i) diff += a() != b();
  EXPECT_GT(diff, 0);
}
TEST(Prng, BelowInRange) {
  cu::Xoshiro256 g(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(g.below(17), 17u);
}
TEST(Prng, Uniform01Range) {
  cu::Xoshiro256 g(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}
TEST(Prng, BelowRoughlyUniform) {
  cu::Xoshiro256 g(11);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) counts[g.below(4)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Table, RendersAligned) {
  cu::Table t({"n", "value"});
  t.add(5, "abc");
  t.add(1000, "x");
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}
TEST(Table, RejectsWidthMismatch) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}
TEST(Table, FormatsDoubles) {
  cu::Table t({"x"});
  t.add(1.23456);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(Table, WritesCsv) {
  cu::Table t({"algo", "n"});
  t.add("construct", 9);
  t.add("with,comma", 11);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "algo,n\nconstruct,9\n\"with,comma\",11\n");
}
TEST(Table, CsvQuotesQuotesAndCarriageReturns) {
  cu::Table t({"x"});
  t.add(std::string("a\"b"));
  t.add(std::string("c\rd"));
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\n\"a\"\"b\"\n\"c\rd\"\n");
}
TEST(Table, WritesJson) {
  cu::Table t({"algo", "n"});
  t.add("greedy", 7);
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(), "[\n  {\"algo\": \"greedy\", \"n\": \"7\"}\n]\n");
}
TEST(Table, JsonEscapesControlCharacters) {
  cu::Table t({"x"});
  t.add(std::string("a\"b\\c\nd\x01"
                    "e"));
  std::ostringstream os;
  t.write_json(os);
  EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd\\u0001e"), std::string::npos);
}
TEST(Table, EmptyJsonIsAnEmptyArray) {
  cu::Table t({"x"});
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=12", "--name=ring"};
  cu::Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_EQ(cli.get("name", ""), "ring");
}
TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "7"};
  cu::Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 7);
}
TEST(Cli, BooleanFlagAndDefault) {
  const char* argv[] = {"prog", "--verbose"};
  cu::Cli cli(2, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
}
TEST(Cli, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=3", "out.txt"};
  cu::Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}
TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--x=2.5"};
  cu::Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
}

TEST(ThreadPool, RunsAllTasks) {
  cu::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { counter++; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}
TEST(ThreadPool, ParallelForCoversRange) {
  cu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(50);
  cu::parallel_for(pool, 10, 40, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 40) ? 1 : 0) << i;
}
TEST(ThreadPool, EmptyRangeIsNoop) {
  cu::ThreadPool pool(2);
  cu::parallel_for(pool, 5, 5, [](std::size_t) { FAIL(); });
}
TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency) {
  cu::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { counter++; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}
TEST(ThreadPool, ReusableAfterDrain) {
  cu::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) pool.submit([&] { counter++; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}
TEST(ThreadPool, TaskExceptionPropagatesToWaitIdle) {
  cu::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The stored exception is cleared and the pool stays usable.
  std::atomic<int> counter{0};
  pool.submit([&] { counter++; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}
TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  cu::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // cleared: a second wait does not rethrow
}
TEST(ThreadPool, ParallelForPropagatesTaskException) {
  cu::ThreadPool pool(4);
  EXPECT_THROW(cu::parallel_for(pool, 0, 100,
                                [](std::size_t i) {
                                  if (i == 37)
                                    throw std::invalid_argument("bad index");
                                }),
               std::invalid_argument);
  // Remaining chunks completed; the pool is still usable afterwards.
  std::vector<std::atomic<int>> hits(20);
  cu::parallel_for(pool, 0, 20, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(TaskGroup, WaitReturnsWhileOtherGroupsStillRun) {
  // A group's wait() must block on its own tasks only, not on every
  // in-flight task in the pool.
  cu::ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  cu::TaskGroup slow, fast;
  pool.submit(slow, [gate] { gate.wait(); });
  std::atomic<int> fast_done{0};
  pool.submit(fast, [&] { fast_done++; });
  fast.wait();  // must not wait for the blocked `slow` task
  EXPECT_EQ(fast_done.load(), 1);
  EXPECT_EQ(slow.pending(), 1u);
  release.set_value();
  slow.wait();
  EXPECT_EQ(slow.pending(), 0u);
}

TEST(TaskGroup, ExceptionsRouteToTheSubmittingBatch) {
  // Two batches on one pool: the failing batch rethrows its own error;
  // the succeeding batch (and the default group) never see it.
  cu::ThreadPool pool(2);
  cu::TaskGroup failing, succeeding;
  for (int i = 0; i < 8; ++i) {
    pool.submit(failing, [] { throw std::runtime_error("boom"); });
    pool.submit(succeeding, [] {});
  }
  succeeding.wait();  // must not throw another batch's exception
  EXPECT_THROW(failing.wait(), std::runtime_error);
  failing.wait();    // cleared on rethrow
  pool.wait_idle();  // default group untouched: no rethrow
}

TEST(ThreadPool, ConcurrentParallelForCallersAreIsolated) {
  // Regression: two OS threads share one pool; one's parallel_for body
  // always throws, the other's never does. Every failing call must
  // observe its own exception and the succeeding caller must never see
  // one (previously wait_idle could rethrow another caller's error and
  // waited for all in-flight tasks).
  cu::ThreadPool pool(4);
  constexpr int kRounds = 25;
  constexpr std::size_t kSpan = 64;

  std::atomic<std::size_t> good_hits{0};
  std::atomic<int> good_saw_exception{0};
  std::atomic<int> bad_exceptions{0};

  std::thread bad([&] {
    for (int r = 0; r < kRounds; ++r) {
      try {
        cu::parallel_for(pool, 0, kSpan, [](std::size_t i) {
          if (i % 7 == 3) throw std::invalid_argument("bad batch");
        });
      } catch (const std::invalid_argument&) {
        bad_exceptions++;
      }
    }
  });
  std::thread good([&] {
    for (int r = 0; r < kRounds; ++r) {
      try {
        cu::parallel_for(pool, 0, kSpan,
                         [&](std::size_t) { good_hits++; });
      } catch (...) {
        good_saw_exception++;
      }
    }
  });
  bad.join();
  good.join();

  EXPECT_EQ(bad_exceptions.load(), kRounds);
  EXPECT_EQ(good_saw_exception.load(), 0);
  EXPECT_EQ(good_hits.load(), kRounds * kSpan);
  pool.wait_idle();  // the pool itself is still healthy
}

TEST(OrderedPipeline, RunsJobsStrictlyInSubmissionOrder) {
  cu::OrderedPipeline pipe(2);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pipe.enqueue([i, &order, &mu] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
      return true;
    }));
  }
  ASSERT_TRUE(pipe.drain());
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(OrderedPipeline, ProducerOverlapsWithTheRunningJob) {
  // While the first job blocks, the producer can still queue the second
  // (depth 2 = double buffering) without deadlocking.
  cu::OrderedPipeline pipe(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> done{0};
  ASSERT_TRUE(pipe.enqueue([gate, &done] {
    gate.wait();
    done++;
    return true;
  }));
  ASSERT_TRUE(pipe.enqueue([&done] {
    done++;
    return true;
  }));  // must not block: slot two of the double buffer
  EXPECT_EQ(done.load(), 0);
  release.set_value();
  ASSERT_TRUE(pipe.drain());
  EXPECT_EQ(done.load(), 2);
}

TEST(OrderedPipeline, FailingJobPoisonsThePipeline) {
  cu::OrderedPipeline pipe(2);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pipe.enqueue([&ran] {
    ran++;
    return false;  // peer gone
  }));
  // Eventually enqueue starts reporting dead; queued-but-unrun jobs are
  // dropped and drain reports the failure.
  while (pipe.enqueue([&ran] {
    ran++;
    return true;
  })) {
  }
  EXPECT_FALSE(pipe.drain());
  EXPECT_FALSE(pipe.enqueue([] { return true; }));
}

TEST(OrderedPipeline, ThrowingJobCountsAsFailure) {
  cu::OrderedPipeline pipe(1);
  ASSERT_TRUE(pipe.enqueue([]() -> bool { throw std::runtime_error("boom"); }));
  EXPECT_FALSE(pipe.drain());
}

TEST(OrderedPipeline, DestructorRunsTheRemainingQueue) {
  std::atomic<int> ran{0};
  {
    cu::OrderedPipeline pipe(4);
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(pipe.enqueue([&ran] {
        ran++;
        return true;
      }));
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(Timer, MeasuresNonNegative) {
  cu::Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.micros(), 0.0);
}
