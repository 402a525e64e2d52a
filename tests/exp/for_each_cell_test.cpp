// exp::for_each_cell, the one fan-out every sweep runs its cells through:
// each index runs exactly once at every jobs level, a failing cell stops
// no other, and the first failure in index order is the one rethrown.
// tools/check.sh --tsan runs this suite under ThreadSanitizer.
#include "exp/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace coopnet::exp {
namespace {

TEST(ForEachCell, RunsEachIndexExactlyOnceAtEveryJobsLevel) {
  for (std::size_t jobs : {1u, 2u, 4u, 8u}) {
    // n < jobs, n == jobs and n > jobs, plus the empty and one-cell sweeps.
    for (std::size_t n : {0u, 1u, 3u, 8u, 100u}) {
      std::vector<std::atomic<int>> runs(n);
      for_each_cell(n, jobs, [&runs](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " of " << n << " at jobs " << jobs;
      }
    }
  }
}

TEST(ForEachCell, StartsAtMostMinOfJobsAndCellsThreads) {
  EXPECT_GE(default_jobs(), 1u);
  for (std::size_t jobs : {2u, 4u, 8u}) {
    for (std::size_t n : {3u, 16u}) {
      std::mutex mu;
      std::set<std::thread::id> threads;
      for_each_cell(n, jobs, [&](std::size_t) {
        // Long enough that one worker cannot drain every index alone.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      });
      EXPECT_LE(threads.size(), std::min(jobs, n)) << jobs << " " << n;
      EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u)
          << "the parallel path runs no cell on the calling thread";
    }
  }
}

TEST(ForEachCell, RethrowsTheFirstFailureInIndexOrderAfterEveryCellRan) {
  for (std::size_t jobs : {2u, 4u, 8u}) {
    constexpr std::size_t kCells = 32;
    std::atomic<std::size_t> ran{0};
    try {
      for_each_cell(kCells, jobs, [&ran](std::size_t i) {
        ++ran;
        // Cell 5 fails last in time, cell 20 first; index order decides.
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("cell 5");
        }
        if (i == 20) throw std::runtime_error("cell 20");
      });
      ADD_FAILURE() << "for_each_cell swallowed the failures at jobs "
                    << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "cell 5") << "jobs " << jobs;
    }
    EXPECT_EQ(ran.load(), kCells) << "jobs " << jobs;
  }
}

TEST(ForEachCell, InlinePathRunsInIndexOrderAndStopsAtAThrowingCell) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  EXPECT_THROW(for_each_cell(10, 1,
                             [&](std::size_t i) {
                               order.push_back(i);
                               on_caller &=
                                   std::this_thread::get_id() == caller;
                               if (i == 3) throw std::runtime_error("cell 3");
                             }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(on_caller);

  // A one-cell sweep is inline at any jobs level.
  bool single_on_caller = false;
  for_each_cell(1, 8, [&](std::size_t) {
    single_on_caller = std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(single_on_caller);
}

}  // namespace
}  // namespace coopnet::exp
