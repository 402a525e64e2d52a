// Fixed-size thread pool for the parallel experiment scheduler.
//
// Deliberately minimal: a single FIFO queue, a fixed worker count chosen at
// construction, and futures-based submission. There is no work stealing and
// no dynamic resizing -- experiment cells are coarse (whole swarm runs), so
// a shared queue is never the bottleneck, and the simple design keeps the
// execution order irrelevant to results: every submitted task must be
// self-contained, which is what makes `--jobs N` bit-identical to
// `--jobs 1` at the experiment layer (see exp::for_each_cell).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace coopnet::util {

/// Fixed worker-count thread pool. Tasks run in FIFO submission order
/// (across workers); exceptions thrown by a task are captured and rethrown
/// from the corresponding future's get().
class ThreadPool {
 public:
  /// Starts `workers` threads. Requires workers >= 1.
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: joins after finishing all already-queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Number of tasks currently queued (excludes tasks being executed).
  std::size_t queued() const;

  /// Hardware concurrency, clamped to at least 1 (the standard permits
  /// hardware_concurrency() == 0 when unknown).
  static std::size_t default_workers();

  /// Enqueues `fn` and returns a future for its result. Thread-safe.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit: pool is shut down");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace coopnet::util
