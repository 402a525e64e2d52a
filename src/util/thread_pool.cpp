#include "util/thread_pool.h"

namespace coopnet::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers < 1) {
    throw std::invalid_argument("ThreadPool: workers < 1");
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t ThreadPool::default_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A packaged_task never lets the exception escape; it lands in the
    // future. Plain std::function tasks must not throw.
    task();
  }
}

}  // namespace coopnet::util
