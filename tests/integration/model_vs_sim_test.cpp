// Cross-validation of the analytical core against the simulator: Table I's
// equilibrium download rates and Table II's bootstrap-speed ordering should
// both be visible in simulation traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "core/bootstrap.h"
#include "core/equilibrium.h"
#include "exp/runner.h"

namespace coopnet::exp {
namespace {

using core::Algorithm;

/// Homogeneous swarm: every leecher has the same capacity U, so Table I
/// predicts d_i - u_S/N = U for T-Chain and FairTorrent, and also U for
/// altruism (mean of the others). Realized throughput (file / completion
/// time) should land within a modest factor of the prediction.
class TableIValidation : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TableIValidation, RealizedRateTracksPrediction) {
  const Algorithm algo = GetParam();
  const double capacity = 256.0 * 1024;

  sim::SwarmConfig config;
  config.algorithm = algo;
  config.n_peers = 60;
  config.file_bytes = 48 * 128 * 1024;
  config.piece_bytes = 128 * 1024;
  config.capacities = core::CapacityDistribution::homogeneous(capacity);
  config.seeder_capacity = capacity;
  config.graph.degree = 30;
  config.flash_crowd_window = 2.0;
  config.tchain_grace = 8.0;
  config.max_time = 2000.0;
  config.seed = 19;

  const auto report = run_scenario(config);
  ASSERT_EQ(report.completed_fraction, 1.0) << core::to_string(algo);

  // Predicted rate from Table I.
  const std::vector<double> caps(config.n_peers, capacity);
  core::ModelParams params;
  params.seeder_rate = config.seeder_capacity;
  const auto rates = core::equilibrium_rates(algo, caps, params);
  const double predicted = rates.download.front();

  const double realized = static_cast<double>(config.file_bytes) /
                          report.completion_summary.median;
  // The simulator pays real-world frictions the equilibrium model ignores
  // (arrival ramp, piece scarcity, endgame), so allow a generous band.
  EXPECT_GT(realized, 0.25 * predicted) << core::to_string(algo);
  EXPECT_LT(realized, 2.50 * predicted) << core::to_string(algo);
}

INSTANTIATE_TEST_SUITE_P(
    HomogeneousEquilibrium, TableIValidation,
    ::testing::Values(Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation,
                      Algorithm::kAltruism),
    [](const auto& info) {
      std::string name = core::to_string(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(TableIIValidation, AnalyticalAndSimulatedBootstrapOrderingsAgree) {
  // Analytical side: Table II probabilities at the paper's example point.
  core::BootstrapParams params;
  const auto rows = core::bootstrap_table(params, 500);
  std::map<Algorithm, double> prob;
  for (const auto& row : rows) prob[row.algorithm] = row.probability;

  // Simulated side: median bootstrap times at mid scale.
  auto config = sim::SwarmConfig::paper_scale(Algorithm::kBitTorrent, 5);
  config.n_peers = 300;
  config.file_bytes = 32LL * 1024 * 1024;
  config.graph.degree = 30;
  config.max_time = 1500.0;
  std::map<Algorithm, double> boot;
  for (auto& r : run_all_algorithms(config).reports()) {
    boot[r.algorithm] = r.bootstrap_times.empty()
                            ? 1e9
                            : r.bootstrap_summary.median;
  }

  // Wherever the analytical probabilities differ decisively (>1.5x), the
  // simulated times must order the same way.
  auto check = [&](Algorithm fast, Algorithm slow) {
    ASSERT_GT(prob[fast], 1.5 * prob[slow]);
    EXPECT_LT(boot[fast], boot[slow])
        << core::to_string(fast) << " vs " << core::to_string(slow);
  };
  check(Algorithm::kAltruism, Algorithm::kBitTorrent);
  check(Algorithm::kAltruism, Algorithm::kReciprocity);
  check(Algorithm::kTChain, Algorithm::kReputation);
  check(Algorithm::kFairTorrent, Algorithm::kReputation);
  check(Algorithm::kBitTorrent, Algorithm::kReciprocity);
  check(Algorithm::kReputation, Algorithm::kReciprocity);
}

}  // namespace
}  // namespace coopnet::exp
