#pragma once
// Minimal fixed-size thread pool for the multi-channel encoding engine.
// Deliberately work-stealing-free: channels are independent, similarly
// sized jobs, so a single mutex-guarded queue is both sufficient and easy
// to reason about for determinism (each task writes only its own output
// slot; the pool imposes no ordering beyond task start).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datc::runtime {

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. A running task may submit further tasks (they count
  /// towards the same wait_idle()), but must never block waiting for one:
  /// with every worker so blocked, nothing would run.
  void submit(std::function<void()> task);

  /// As submit(), but the task goes to the front of the queue: the next
  /// free worker runs it ahead of everything already queued (the latest
  /// front submission first). For critical-path work that background
  /// tasks must not delay.
  void submit_front(std::function<void()> task);

  /// Block until every submitted task has finished. Rethrows the first
  /// exception thrown by any task since the last wait_idle().
  void wait_idle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop();
  void enqueue(std::function<void()> task, bool front);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_{0};
  bool stop_{false};
  std::exception_ptr first_error_;
};

/// Runs fn(i) for every i in [0, n) across the pool and blocks until all
/// are done. Exceptions propagate (first one wins). With a single-thread
/// pool this degenerates to a serial loop in submission order.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace datc::runtime
