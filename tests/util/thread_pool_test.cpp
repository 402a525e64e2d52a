#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coopnet::util {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_workers(), 1u);
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitVoidTaskCompletes) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("cell failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, RunsAllTasksExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> counts(kTasks);
  std::vector<std::future<void>> pending;
  pending.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    pending.push_back(pool.submit([&counts, i] { ++counts[i]; }));
  }
  for (auto& f : pending) f.get();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> pending;
  for (int i = 0; i < 50; ++i) {
    pending.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : pending) f.get();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Head task sleeps so the rest are still queued at destruction time.
    for (int i = 0; i < 10; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++ran;
      });
    }
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ConcurrentSubmittersAreSafe) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &total] {
      std::vector<std::future<void>> pending;
      for (int i = 0; i < 100; ++i) {
        pending.push_back(pool.submit([&total] { ++total; }));
      }
      for (auto& f : pending) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 400);
}

}  // namespace
}  // namespace coopnet::util
