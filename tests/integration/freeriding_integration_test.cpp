// End-to-end reproduction checks for Figures 5 and 6: free-riders mounting
// each algorithm's most effective attack, with and without the large-view
// exploit.
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

class FreeRiderSwarm : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reports_ = new std::map<Algorithm, metrics::RunReport>();
    large_ = new std::map<Algorithm, metrics::RunReport>();
    for (Algorithm a : core::kAllAlgorithms) {
      auto config = mid_scale(5);
      config.algorithm = a;
      reports_->emplace(a, run_scenario(with_freeriders(config, 0.2, false)));
      large_->emplace(a, run_scenario(with_freeriders(config, 0.2, true)));
    }
  }
  static void TearDownTestSuite() {
    delete reports_;
    delete large_;
    reports_ = nullptr;
    large_ = nullptr;
  }
  static const metrics::RunReport& plain(Algorithm a) {
    return reports_->at(a);
  }
  static const metrics::RunReport& large(Algorithm a) {
    return large_->at(a);
  }
  static std::map<Algorithm, metrics::RunReport>* reports_;
  static std::map<Algorithm, metrics::RunReport>* large_;
};

std::map<Algorithm, metrics::RunReport>* FreeRiderSwarm::reports_ = nullptr;
std::map<Algorithm, metrics::RunReport>* FreeRiderSwarm::large_ = nullptr;

TEST_F(FreeRiderSwarm, TargetedAttackSelection) {
  EXPECT_TRUE(targeted_attack(Algorithm::kTChain).collusion);
  EXPECT_TRUE(targeted_attack(Algorithm::kFairTorrent).whitewashing);
  EXPECT_TRUE(targeted_attack(Algorithm::kReputation).sybil_praise);
  const auto bt = targeted_attack(Algorithm::kBitTorrent);
  EXPECT_FALSE(bt.collusion || bt.whitewashing || bt.sybil_praise);
}

TEST_F(FreeRiderSwarm, ReciprocityAndTChainAreNearlyImmune) {
  // Fig. 5a / Table III: zero exploitable resources.
  EXPECT_LT(plain(Algorithm::kReciprocity).susceptibility, 0.001);
  EXPECT_LT(plain(Algorithm::kTChain).susceptibility, 0.02);
}

TEST_F(FreeRiderSwarm, AltruismAndReputationAreMostSusceptible) {
  // Altruism gives everything away; sybil praise makes reputation equally
  // bad. Both sit near the free-riders' 20% population share.
  EXPECT_GT(plain(Algorithm::kAltruism).susceptibility, 0.15);
  EXPECT_GT(plain(Algorithm::kReputation).susceptibility, 0.15);
}

TEST_F(FreeRiderSwarm, HybridsLeakButLessThanAltruism) {
  const double alt = plain(Algorithm::kAltruism).susceptibility;
  for (Algorithm a : {Algorithm::kBitTorrent, Algorithm::kFairTorrent}) {
    const double s = plain(a).susceptibility;
    EXPECT_GT(s, 0.02) << core::to_string(a);
    EXPECT_LT(s, alt) << core::to_string(a);
  }
}

TEST_F(FreeRiderSwarm, TChainIsTheLeastSusceptibleExchangingAlgorithm) {
  const double tc = plain(Algorithm::kTChain).susceptibility;
  for (Algorithm a : {Algorithm::kBitTorrent, Algorithm::kFairTorrent,
                      Algorithm::kReputation, Algorithm::kAltruism}) {
    EXPECT_LT(tc, plain(a).susceptibility) << core::to_string(a);
  }
}

TEST_F(FreeRiderSwarm, CompliantPeersStillFinishEverywhereButReciprocity) {
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent, Algorithm::kReputation,
                      Algorithm::kAltruism}) {
    EXPECT_NEAR(plain(a).completed_fraction, 1.0, 1e-9)
        << core::to_string(a);
  }
}

TEST_F(FreeRiderSwarm, FreeRidingCostsEfficiencyForSusceptibleAlgorithms) {
  // Fig. 5b vs Fig. 4a: algorithms that leak bandwidth to free-riders get
  // slower for compliant users; T-Chain barely moves.
  std::map<Algorithm, double> baseline;
  for (auto& r : run_all_algorithms(mid_scale(5)).reports()) {
    if (!r.completion_times.empty()) {
      baseline[r.algorithm] = r.completion_summary.mean;
    }
  }
  EXPECT_GT(plain(Algorithm::kAltruism).completion_summary.mean,
            baseline[Algorithm::kAltruism]);
  EXPECT_GT(plain(Algorithm::kBitTorrent).completion_summary.mean,
            baseline[Algorithm::kBitTorrent]);
  const double tc_delta =
      std::abs(plain(Algorithm::kTChain).completion_summary.mean -
               baseline[Algorithm::kTChain]);
  EXPECT_LT(tc_delta, 0.2 * baseline[Algorithm::kTChain]);
}

TEST_F(FreeRiderSwarm, LargeViewRaisesSusceptibilityOfLeakyHybrids) {
  // Fig. 6a: the large-view exploit increases what free-riders capture
  // from the algorithms whose leak is rationed per-neighborhood.
  for (Algorithm a : {Algorithm::kTChain, Algorithm::kBitTorrent,
                      Algorithm::kFairTorrent}) {
    EXPECT_GT(large(a).susceptibility, plain(a).susceptibility)
        << core::to_string(a);
  }
}

TEST_F(FreeRiderSwarm, LargeViewCannotBreachTChain) {
  // Fig. 6: even with the large view, T-Chain's leak stays ~1%.
  EXPECT_LT(large(Algorithm::kTChain).susceptibility, 0.03);
}

TEST_F(FreeRiderSwarm, SaturatedAlgorithmsStaySaturated) {
  // Altruism/reputation already hand free-riders their full demand share;
  // a larger view cannot create more demand (paper's doubling claim
  // applies to the rationed algorithms).
  EXPECT_NEAR(large(Algorithm::kAltruism).susceptibility,
              plain(Algorithm::kAltruism).susceptibility, 0.05);
}

TEST_F(FreeRiderSwarm, FairnessDegradesForSusceptibleAlgorithms) {
  // Fig. 5c: compliant users upload strictly more than they download once
  // free-riders soak up bandwidth -- the mean u/d ratio rises above 1 for
  // the susceptible algorithms, while T-Chain's stays the closest-to-fair
  // eq. 3 statistic among the leaky ones.
  for (Algorithm a : {Algorithm::kBitTorrent, Algorithm::kReputation,
                      Algorithm::kAltruism}) {
    EXPECT_GT(plain(a).settled_fairness, 1.0) << core::to_string(a);
  }
  EXPECT_LT(plain(Algorithm::kTChain).final_fairness_F,
            plain(Algorithm::kBitTorrent).final_fairness_F);
  EXPECT_LT(plain(Algorithm::kTChain).final_fairness_F,
            plain(Algorithm::kAltruism).final_fairness_F);
}

}  // namespace
}  // namespace coopnet::exp
