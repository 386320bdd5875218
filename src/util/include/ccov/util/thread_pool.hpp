#pragma once
/// \file thread_pool.hpp
/// A small fixed-size thread pool with a parallel_for helper. Benchmark
/// sweeps, property tests and the engine's BatchRunner share one pool to
/// exploit all cores; the combinatorial kernels themselves stay
/// single-threaded and deterministic.
///
/// Concurrent callers are isolated through TaskGroup completion tokens:
/// each batch waits only for its own tasks and observes only its own
/// exceptions, so a long-running serve loop can fan independent batches
/// across one shared pool without cross-talk.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "ccov/util/thread_annotations.hpp"

namespace ccov::util {

class ThreadPool;

/// Completion token for one batch of tasks. Submit tasks against a group
/// with ThreadPool::submit(group, task); group.wait() then blocks until
/// exactly those tasks finished and rethrows the first exception *this
/// batch* raised — never another caller's. A TaskGroup may be reused for
/// further batches after wait() returns.
class TaskGroup {
 public:
  TaskGroup() : state_(std::make_shared<State>()) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Block until every task submitted against this group has finished,
  /// then rethrow the first exception one of them raised (if any). The
  /// stored exception is cleared on rethrow, so the group stays usable.
  void wait();

  /// Tasks submitted against this group that have not yet completed.
  std::size_t pending() const;

 private:
  friend class ThreadPool;
  struct State {
    Mutex mu;
    std::condition_variable_any cv;
    std::size_t pending CCOV_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error CCOV_GUARDED_BY(mu);
  };
  std::shared_ptr<State> state_;
};

class ThreadPool {
 public:
  /// \p threads == 0 selects hardware_concurrency (at least 1). When a
  /// worker cannot start (the process is out of threads), the workers
  /// already started are stopped and joined and the std::system_error is
  /// rethrown, so a failed pool never takes the process down.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task against the pool's default group. A task that throws
  /// does not terminate the process: the first exception is captured and
  /// rethrown from the next wait_idle().
  void submit(std::function<void()> task);

  /// Enqueue a task against \p group; completion and exceptions are
  /// routed to that group alone (see TaskGroup::wait).
  void submit(TaskGroup& group, std::function<void()> task);

  /// Block until every submitted task (all groups) has finished, then
  /// rethrow the first exception raised by a *default-group* task, if
  /// one did. Batches that want isolation from other callers should use
  /// an explicit TaskGroup instead. The pool stays usable afterwards —
  /// the stored exception is cleared on rethrow.
  void wait_idle();

 private:
  struct Item {
    std::function<void()> fn;
    std::shared_ptr<TaskGroup::State> group;
  };

  void enqueue(std::shared_ptr<TaskGroup::State> group,
               std::function<void()> task);
  void worker_loop();
  void stop_and_join();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<Item> queue_ CCOV_GUARDED_BY(mu_);
  std::condition_variable_any cv_task_;
  std::condition_variable_any cv_idle_;
  std::size_t in_flight_ CCOV_GUARDED_BY(mu_) = 0;
  bool stop_ CCOV_GUARDED_BY(mu_) = false;
  TaskGroup default_group_;
};

/// Run fn(i) for i in [begin, end) across the pool, blocking until done.
/// Indices are chunked to limit queue overhead. An exception thrown by
/// fn propagates to the caller (remaining chunks still run to
/// completion; only the first exception is rethrown). Uses a private
/// TaskGroup, so concurrent parallel_for calls on one shared pool
/// neither wait on each other nor observe each other's exceptions.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ccov::util
