#include "expert/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace expert::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // State of this call only; it outlives every task below because the
  // caller waits for `running` to reach zero before returning.
  struct Batch {
    std::atomic<std::size_t> next{0};
    Mutex mutex;
    CondVar done;
    std::size_t running EXPERT_GUARDED_BY(mutex) = 0;
    std::exception_ptr first_error EXPERT_GUARDED_BY(mutex);
  } batch;
  const std::size_t tasks = std::min(n, workers_.size());
  {
    MutexLock lock(batch.mutex);
    batch.running = tasks;
  }
  const auto drain = [&batch, &body, n] {
    std::exception_ptr error;
    for (;;) {
      const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    MutexLock lock(batch.mutex);
    if (error && !batch.first_error) batch.first_error = std::move(error);
    if (--batch.running == 0) batch.done.notify_all();
  };
  {
    MutexLock lock(mutex_);
    for (std::size_t t = 0; t < tasks; ++t) tasks_.push(drain);
  }
  for (std::size_t t = 0; t < tasks; ++t) task_ready_.notify_one();

  std::exception_ptr error;
  {
    MutexLock lock(batch.mutex);
    while (batch.running > 0) batch.done.wait(batch.mutex);
    error = batch.first_error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) task_ready_.wait(mutex_);
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // a parallel_for drain: catches every exception itself
  }
}

}  // namespace expert::util
