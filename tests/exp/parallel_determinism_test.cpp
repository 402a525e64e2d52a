// Determinism under parallelism: the experiment scheduler must produce
// byte-identical results at every --jobs level. These tests compare the
// full JSON dumps of run_replicated(jobs=1) and run_replicated(jobs=4)
// for the simulated mechanisms, with and without the fault/churn layer.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "exp/replication.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "sim/faults.h"
#include "util/rng.h"

namespace coopnet::exp {
namespace {

sim::SwarmConfig scenario(core::Algorithm algo, bool with_faults) {
  auto config = sim::SwarmConfig::small(algo, 0);
  config.n_peers = 40;
  config.file_bytes = 2LL * 1024 * 1024;
  config.max_time = 1500.0;
  if (with_faults) {
    // Exercise the PR-1 fault layer: losses + churn both draw from the
    // per-run RNG, the hardest case for run-to-run reproducibility.
    config.faults = sim::lossy_faults(0.10);
    config.faults.churn_rate = 1.0 / 400.0;
    config.faults.rejoin_probability = 0.8;
  }
  return config;
}

class ParallelDeterminismTest
    : public ::testing::TestWithParam<std::tuple<core::Algorithm, bool>> {};

TEST_P(ParallelDeterminismTest, SequentialAndParallelJsonAreByteIdentical) {
  const auto [algo, with_faults] = GetParam();
  const auto config = scenario(algo, with_faults);

  const auto sequential = run_replicated(config, 4, /*seed0=*/11, /*jobs=*/1);
  const auto parallel = run_replicated(config, 4, /*seed0=*/11, /*jobs=*/4);
  ASSERT_TRUE(sequential.sweep.complete())
      << sequential.sweep.degradation_summary();
  ASSERT_TRUE(parallel.sweep.complete())
      << parallel.sweep.degradation_summary();

  ASSERT_EQ(sequential.runs.size(), parallel.runs.size());
  EXPECT_EQ(metrics::to_json(sequential.runs), metrics::to_json(parallel.runs));

  // The aggregates derived from the runs match bit-for-bit too.
  EXPECT_EQ(sequential.mean_completion.mean, parallel.mean_completion.mean);
  EXPECT_EQ(sequential.mean_completion.ci95_half_width,
            parallel.mean_completion.ci95_half_width);
  EXPECT_EQ(sequential.completed_fraction.mean,
            parallel.completed_fraction.mean);
  EXPECT_EQ(sequential.susceptibility.mean, parallel.susceptibility.mean);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsAndFaults, ParallelDeterminismTest,
    ::testing::Combine(::testing::Values(core::Algorithm::kBitTorrent,
                                         core::Algorithm::kFairTorrent,
                                         core::Algorithm::kTChain),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = core::to_string(std::get<0>(info.param)) +
                         (std::get<1>(info.param) ? "Faults" : "Clean");
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name;
    });

TEST(RunCells, OrderMatchesInputAtEveryJobsLevel) {
  // A mixed batch (different algorithms, different seeds): slot i must
  // hold cell i's report regardless of which worker finished first.
  std::vector<sim::SwarmConfig> cells;
  for (std::size_t i = 0; i < 6; ++i) {
    auto c = sim::SwarmConfig::small(
        i % 2 == 0 ? core::Algorithm::kBitTorrent
                   : core::Algorithm::kAltruism,
        cell_seed(3, i));
    c.n_peers = 30;
    c.file_bytes = 1LL * 1024 * 1024;
    cells.push_back(c);
  }
  const auto sequential = run_cells(cells, 1).reports();
  const auto parallel = run_cells(cells, 4).reports();
  ASSERT_EQ(sequential.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(sequential[i].algorithm, cells[i].algorithm);
    EXPECT_EQ(metrics::to_json(sequential[i]), metrics::to_json(parallel[i]))
        << "cell " << i;
  }
}

TEST(RunCells, FillsTimingAndPropagatesCellExceptions) {
  std::vector<sim::SwarmConfig> cells(3,
                                      sim::SwarmConfig::small(
                                          core::Algorithm::kAltruism, 1));
  for (auto& c : cells) {
    c.n_peers = 20;
    c.file_bytes = 1LL * 1024 * 1024;
  }
  const auto sweep = run_cells(cells, 2);
  EXPECT_EQ(sweep.reports().size(), 3u);
  EXPECT_EQ(sweep.timing.cells, 3u);
  EXPECT_EQ(sweep.timing.jobs, 2u);
  EXPECT_EQ(sweep.timing.completed, 3u);
  EXPECT_GT(sweep.timing.wall_seconds, 0.0);
  EXPECT_GT(sweep.timing.throughput(), 0.0);
  EXPECT_NE(sweep.timing.to_string().find("jobs=2"), std::string::npos);

  // An invalid cell's exception text surfaces through reports() at the
  // call site, sequential or parallel alike, with the timing still filled.
  cells[1].n_peers = 0;  // validate() rejects this inside Swarm
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const auto degraded = run_cells(cells, jobs);
    EXPECT_EQ(degraded.timing.cells, 3u) << "jobs=" << jobs;
    EXPECT_EQ(degraded.timing.failed, 1u) << "jobs=" << jobs;
    EXPECT_GT(degraded.timing.wall_seconds, 0.0);
    ASSERT_FALSE(degraded.outcomes[1].error.empty());
    try {
      degraded.reports();
      ADD_FAILURE() << "jobs=" << jobs << ": reports() must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(degraded.outcomes[1].error),
                std::string::npos)
          << "jobs=" << jobs;
    }
  }
}

TEST(CellSeed, IsStableDecorrelatedAndIndexable) {
  // The schedule is part of the reproducibility contract: lock it down.
  EXPECT_EQ(cell_seed(7, 0), cell_seed(7, 0));
  EXPECT_NE(cell_seed(7, 0), cell_seed(7, 1));
  EXPECT_NE(cell_seed(7, 0), cell_seed(8, 0));

  // Entering the SplitMix64 stream at index i equals walking i steps.
  std::uint64_t state = 123;
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(util::splitmix64(state), cell_seed(123, i)) << "index " << i;
  }

  // No collisions across a realistic sweep's worth of cells.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(cell_seed(7, i));
  EXPECT_EQ(seen.size(), 4096u);
}

}  // namespace
}  // namespace coopnet::exp
