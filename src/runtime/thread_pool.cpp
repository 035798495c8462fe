#include "runtime/thread_pool.hpp"

#include <algorithm>

namespace datc::runtime {

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? hardware_threads() : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue(std::move(task), /*front=*/false);
}

void ThreadPool::submit_front(std::function<void()> task) {
  enqueue(std::move(task), /*front=*/true);
}

void ThreadPool::enqueue(std::function<void()> task, bool front) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (front) {
      queue_.push_front(std::move(task));
    } else {
      queue_.push_back(std::move(task));
    }
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait_idle();
}

}  // namespace datc::runtime
