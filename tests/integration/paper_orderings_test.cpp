// End-to-end reproduction checks for Figure 4's compliant-swarm results:
// efficiency, fairness, and bootstrapping orderings across all six
// algorithms in one shared mid-scale scenario.
#include <gtest/gtest.h>

#include <map>

#include "exp/runner.h"

namespace coopnet::exp {
namespace {

using core::Algorithm;

sim::SwarmConfig mid_scale(std::uint64_t seed) {
  auto config = sim::SwarmConfig::paper_scale(Algorithm::kBitTorrent, seed);
  config.n_peers = 300;
  config.file_bytes = 32LL * 1024 * 1024;
  config.graph.degree = 30;
  config.max_time = 1500.0;
  return config;
}

/// One shared set of runs for the whole suite (each run is ~0.2 s, but six
/// algorithms x several tests adds up).
class CompliantSwarm : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reports_ = new std::map<Algorithm, metrics::RunReport>();
    for (auto& r : run_all_algorithms(mid_scale(5)).reports()) {
      reports_->emplace(r.algorithm, std::move(r));
    }
  }
  static void TearDownTestSuite() {
    delete reports_;
    reports_ = nullptr;
  }
  static const metrics::RunReport& report(Algorithm a) {
    return reports_->at(a);
  }
  static std::map<Algorithm, metrics::RunReport>* reports_;
};

std::map<Algorithm, metrics::RunReport>* CompliantSwarm::reports_ = nullptr;

TEST_F(CompliantSwarm, ReciprocityNeverCompletes) {
  EXPECT_EQ(report(Algorithm::kReciprocity).completion_times.size(), 0u);
}

TEST_F(CompliantSwarm, AllOtherAlgorithmsComplete) {
  for (Algorithm a :
       {Algorithm::kTChain, Algorithm::kBitTorrent, Algorithm::kFairTorrent,
        Algorithm::kReputation, Algorithm::kAltruism}) {
    EXPECT_NEAR(report(a).completed_fraction, 1.0, 1e-9)
        << core::to_string(a);
  }
}

TEST_F(CompliantSwarm, AltruismIsMostEfficient) {
  const double alt = report(Algorithm::kAltruism).completion_summary.mean;
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation}) {
    EXPECT_LT(alt, report(a).completion_summary.mean) << core::to_string(a);
  }
}

TEST_F(CompliantSwarm, HybridsAreComparableInEfficiency) {
  // Fig. 4a: T-Chain, BitTorrent, and FairTorrent land within a small
  // factor of each other (we include reputation, which also clusters).
  double lo = 1e300, hi = 0.0;
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation}) {
    const double mean = report(a).completion_summary.mean;
    lo = std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  EXPECT_LT(hi / lo, 3.0);
}

TEST_F(CompliantSwarm, FairnessRankingMatchesFigure2) {
  // eq. 3's F statistic (lower = fairer): T-Chain and FairTorrent are the
  // most fair, BitTorrent clearly less fair, altruism the least fair.
  const double tc = report(Algorithm::kTChain).final_fairness_F;
  const double ft = report(Algorithm::kFairTorrent).final_fairness_F;
  const double bt = report(Algorithm::kBitTorrent).final_fairness_F;
  const double alt = report(Algorithm::kAltruism).final_fairness_F;
  EXPECT_LT(tc, bt);
  EXPECT_LT(ft, bt);
  EXPECT_LT(bt, alt);
}

TEST_F(CompliantSwarm, MeanRatioFairnessNearOneForExchangingAlgorithms) {
  // Section V's avg u/d statistic settles near 1 once the swarm stabilizes
  // for every algorithm in which peers actually exchange.
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation}) {
    const double fair = report(a).settled_fairness;
    EXPECT_GT(fair, 0.80) << core::to_string(a);
    EXPECT_LT(fair, 1.20) << core::to_string(a);
  }
}

TEST_F(CompliantSwarm, BootstrapOrderingMatchesTableII) {
  // Altruism ~ FairTorrent ~ T-Chain fastest; BitTorrent and reputation
  // clearly slower; reciprocity (seeder-only) slowest.
  const double alt = report(Algorithm::kAltruism).bootstrap_summary.median;
  const double ft =
      report(Algorithm::kFairTorrent).bootstrap_summary.median;
  const double tc = report(Algorithm::kTChain).bootstrap_summary.median;
  const double bt =
      report(Algorithm::kBitTorrent).bootstrap_summary.median;
  const double rep =
      report(Algorithm::kReputation).bootstrap_summary.median;
  const double rec =
      report(Algorithm::kReciprocity).bootstrap_summary.median;

  const double fast_tier = std::max({alt, ft, tc});
  EXPECT_LT(fast_tier, bt);
  EXPECT_LT(fast_tier, rep);
  EXPECT_LT(bt, rec);
  EXPECT_LT(rep, rec);
}

TEST_F(CompliantSwarm, EveryoneBootstrapsExceptUnderPureReciprocity) {
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation,
                      Algorithm::kAltruism}) {
    EXPECT_NEAR(report(a).bootstrapped_fraction, 1.0, 1e-9)
        << core::to_string(a);
  }
  // Reciprocity: the seeder alone cannot bootstrap a 300-peer flash crowd
  // quickly, but it does reach some peers.
  EXPECT_GT(report(Algorithm::kReciprocity).bootstrapped_fraction, 0.1);
}

TEST_F(CompliantSwarm, NoFreeRidersMeansZeroSusceptibility) {
  for (Algorithm a : core::kAllAlgorithms) {
    EXPECT_EQ(report(a).susceptibility, 0.0) << core::to_string(a);
  }
}

TEST_F(CompliantSwarm, ByteConservationHolds) {
  // Eq. 1 as a trace audit: nothing is downloaded that was not uploaded.
  for (Algorithm a : core::kAllAlgorithms) {
    const auto& r = report(a);
    EXPECT_GE(r.total_uploaded_bytes, r.total_downloaded_raw_bytes)
        << core::to_string(a);
    if (a != Algorithm::kReciprocity) {
      EXPECT_GT(r.total_downloaded_raw_bytes, 0) << core::to_string(a);
    }
  }
}

// Determinism across the exact same configuration, and variation across
// seeds, both at a smaller scale to stay fast.
// The headline orderings must be robust to the seed, not a draw artifact.
class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, HeadlineOrderingsHold) {
  std::map<Algorithm, metrics::RunReport> reports;
  for (auto& r : run_all_algorithms(mid_scale(GetParam())).reports()) {
    reports.emplace(r.algorithm, std::move(r));
  }
  // Efficiency: altruism fastest, reciprocity never.
  EXPECT_EQ(reports.at(Algorithm::kReciprocity).completion_times.size(), 0u);
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation}) {
    EXPECT_LT(reports.at(Algorithm::kAltruism).completion_summary.mean,
              reports.at(a).completion_summary.mean)
        << core::to_string(a);
  }
  // Fairness F: T-Chain and FairTorrent beat BitTorrent; altruism worst.
  EXPECT_LT(reports.at(Algorithm::kTChain).final_fairness_F,
            reports.at(Algorithm::kBitTorrent).final_fairness_F);
  EXPECT_LT(reports.at(Algorithm::kFairTorrent).final_fairness_F,
            reports.at(Algorithm::kBitTorrent).final_fairness_F);
  EXPECT_LT(reports.at(Algorithm::kBitTorrent).final_fairness_F,
            reports.at(Algorithm::kAltruism).final_fairness_F);
  // Bootstrap tiers (Table II).
  const double fast_tier =
      std::max({reports.at(Algorithm::kAltruism).bootstrap_summary.median,
                reports.at(Algorithm::kFairTorrent).bootstrap_summary.median,
                reports.at(Algorithm::kTChain).bootstrap_summary.median});
  EXPECT_LT(fast_tier,
            reports.at(Algorithm::kBitTorrent).bootstrap_summary.median);
  EXPECT_LT(fast_tier,
            reports.at(Algorithm::kReputation).bootstrap_summary.median);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(9, 1234, 987654321));

TEST(Reproducibility, SameSeedSameResults) {
  const auto config = sim::SwarmConfig::small(Algorithm::kBitTorrent, 77);
  const auto a = run_scenario(config);
  const auto b = run_scenario(config);
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_EQ(a.bootstrap_times, b.bootstrap_times);
  EXPECT_EQ(a.total_uploaded_bytes, b.total_uploaded_bytes);
}

TEST(Reproducibility, DifferentSeedsDiffer) {
  const auto a =
      run_scenario(sim::SwarmConfig::small(Algorithm::kBitTorrent, 1));
  const auto b =
      run_scenario(sim::SwarmConfig::small(Algorithm::kBitTorrent, 2));
  EXPECT_NE(a.completion_times, b.completion_times);
}

}  // namespace
}  // namespace coopnet::exp
