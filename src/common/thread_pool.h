// A fixed-size worker pool with a bounded-latency shutdown, used by the MPP
// executor's TP/AP/SlowAP pools and by tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace polarx {

/// FIFO thread pool. Tasks are std::function<void()>; exceptions escaping a
/// task terminate the process (tasks must handle their own errors via Status).
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `name` is used for debugging only.
  explicit ThreadPool(size_t num_threads, std::string name = "pool");

  /// Drains and joins all workers. Pending tasks are still executed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all in-flight tasks have finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::string name_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace polarx
