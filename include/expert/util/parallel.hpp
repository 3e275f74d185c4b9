#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "expert/util/thread_safety.hpp"

namespace expert::util {

/// Fixed-size pool of persistent worker threads with one batch call,
/// parallel_for. Each call hands out its indices through a cursor of its
/// own, so concurrent callers share the workers without seeing each other.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run body(i) for every i in [0, n) and return once all of them ran. At
  /// most size() workers take part, each pulling the next index from the
  /// call's atomic cursor, so a 1-thread pool runs the indices in order.
  /// Every index runs even when some throw; the first exception is then
  /// rethrown here. A body must not call parallel_for on its own pool.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ EXPERT_GUARDED_BY(mutex_);
  CondVar task_ready_;
  bool stopping_ EXPERT_GUARDED_BY(mutex_) = false;
};

}  // namespace expert::util
