#include "ccov/util/thread_pool.hpp"

#include <algorithm>
#include <system_error>
#include <utility>

#include "ccov/util/failpoint.hpp"

namespace ccov::util {

void TaskGroup::wait() {
  State& s = *state_;
  std::exception_ptr err;
  {
    MutexLock lk(s.mu);
    while (s.pending != 0) s.cv.wait(s.mu);
    err = std::exchange(s.first_error, nullptr);
  }
  // Rethrow outside the lock: the handler may submit follow-up work.
  if (err) std::rethrow_exception(err);
}

std::size_t TaskGroup::pending() const {
  MutexLock lk(state_->mu);
  return state_->pending;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      // Seam: the last spawn fails after the others started, as when the
      // process reaches its thread limit part way through.
      if (i + 1 == threads && CCOV_FAILPOINT("thread_spawn"))
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "thread_spawn");
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A joinable std::thread destroyed with workers_ would terminate the
    // process: stop and join the workers that did start, then report.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue(default_group_.state_, std::move(task));
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  enqueue(group.state_, std::move(task));
}

void ThreadPool::enqueue(std::shared_ptr<TaskGroup::State> group,
                         std::function<void()> task) {
  {
    MutexLock lk(group->mu);
    ++group->pending;
  }
  {
    MutexLock lk(mu_);
    queue_.push(Item{std::move(task), std::move(group)});
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  {
    MutexLock lk(mu_);
    while (in_flight_ != 0) cv_idle_.wait(mu_);
  }
  // Rethrow (and clear) only the default group's error: an explicit
  // TaskGroup's failure belongs to the batch that submitted it.
  auto& state = *default_group_.state_;
  std::exception_ptr err;
  {
    MutexLock lk(state.mu);
    err = std::exchange(state.first_error, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Item item;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_task_.wait(mu_);
      if (queue_.empty()) return;  // stop_ must be set
      item = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr err;
    try {
      item.fn();
    } catch (...) {
      err = std::current_exception();
    }
    {
      MutexLock lk(item.group->mu);
      if (err && !item.group->first_error) item.group->first_error = err;
      if (--item.group->pending == 0) item.group->cv.notify_all();
    }
    {
      MutexLock lk(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t span = end - begin;
  const std::size_t chunks = std::min(span, pool.size() * 4);
  const std::size_t step = (span + chunks - 1) / chunks;
  TaskGroup group;
  for (std::size_t lo = begin; lo < end; lo += step) {
    const std::size_t hi = std::min(end, lo + step);
    pool.submit(group, [lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  group.wait();
}

}  // namespace ccov::util
