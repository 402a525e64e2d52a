#include "exp/replication.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/runner.h"
#include "exp/schedule.h"
#include "metrics/json.h"
#include "util/stats.h"

namespace coopnet::exp {
namespace {

TEST(Estimate, SingleSampleHasZeroWidth) {
  const auto e = estimate({5.0});
  EXPECT_EQ(e.mean, 5.0);
  EXPECT_EQ(e.stddev, 0.0);
  EXPECT_EQ(e.ci95_half_width, 0.0);
  EXPECT_EQ(e.samples, 1u);
}

TEST(Estimate, KnownSample) {
  const auto e = estimate({2.0, 4.0, 6.0, 8.0});
  EXPECT_NEAR(e.mean, 5.0, 1e-12);
  EXPECT_NEAR(e.stddev, std::sqrt(20.0 / 3.0), 1e-12);
  // Small sample: Student-t critical value (df = 3), not the normal 1.96.
  EXPECT_NEAR(e.ci95_half_width, 3.182 * e.stddev / 2.0, 1e-12);
  EXPECT_NEAR(e.hi() - e.lo(), 2.0 * e.ci95_half_width, 1e-12);
}

TEST(Estimate, SmallSampleUsesStudentT) {
  // --reps 5 must widen the interval by t_4 / 1.96 ~ 1.42x vs the normal
  // approximation: the satellite fix this test pins down.
  const std::vector<double> sample = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto e = estimate(sample);
  EXPECT_NEAR(e.ci95_half_width,
              2.776 * e.stddev / std::sqrt(5.0), 1e-12);
  EXPECT_GT(e.ci95_half_width, 1.96 * e.stddev / std::sqrt(5.0));
}

TEST(Estimate, LargeSampleUsesNormalApproximation) {
  std::vector<double> sample;
  for (int i = 0; i < 40; ++i) sample.push_back(static_cast<double>(i % 7));
  const auto e = estimate(sample);
  EXPECT_NEAR(e.ci95_half_width, 1.96 * e.stddev / std::sqrt(40.0), 1e-12);
}

TEST(Estimate, CriticalValueTableIsMonotone) {
  // t-values decrease toward the normal limit as df grows.
  double prev = util::t_critical_975(1);
  for (std::size_t df = 2; df <= 30; ++df) {
    const double t = util::t_critical_975(df);
    EXPECT_LT(t, prev) << "df " << df;
    EXPECT_GE(t, 1.96) << "df " << df;
    prev = t;
  }
  EXPECT_EQ(util::t_critical_975(30), 1.96);
  EXPECT_EQ(util::t_critical_975(1000), 1.96);
  EXPECT_THROW(util::t_critical_975(0), std::invalid_argument);
}

TEST(Estimate, EmptyThrows) {
  EXPECT_THROW(estimate({}), std::invalid_argument);
}

TEST(Estimate, ToStringMentionsBothNumbers) {
  const auto e = estimate({1.0, 3.0});
  const std::string s = e.to_string(3);
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_NE(s.find("+/-"), std::string::npos);
}

TEST(RunReplicated, AggregatesAcrossSeeds) {
  auto config = sim::SwarmConfig::small(core::Algorithm::kAltruism, 0);
  config.n_peers = 30;
  const auto rep = run_replicated(config, 3, /*seed0=*/11);
  ASSERT_TRUE(rep.sweep.complete()) << rep.sweep.degradation_summary();
  EXPECT_EQ(rep.replications, 3u);
  EXPECT_EQ(rep.runs.size(), 3u);
  EXPECT_EQ(rep.algorithm, core::Algorithm::kAltruism);
  EXPECT_NEAR(rep.completed_fraction.mean, 1.0, 1e-9);
  EXPECT_GT(rep.mean_completion.mean, 0.0);
  EXPECT_EQ(rep.mean_completion.samples, 3u);
  // Different seeds genuinely differ.
  EXPECT_NE(rep.runs[0].completion_times, rep.runs[1].completion_times);
  // CI width is finite and nonnegative.
  EXPECT_GE(rep.mean_completion.ci95_half_width, 0.0);
}

TEST(RunReplicated, UsesSplitmixSeedSchedule) {
  // Replication r runs under cell_seed(seed0, r) -- the documented,
  // stable schedule that the parallel path shares with the sequential one.
  auto config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent, 0);
  config.n_peers = 30;
  const auto rep = run_replicated(config, 2, /*seed0=*/11);
  ASSERT_TRUE(rep.sweep.complete()) << rep.sweep.degradation_summary();
  auto direct = config;
  direct.seed = cell_seed(11, 1);
  EXPECT_EQ(metrics::to_json(rep.runs[1]),
            metrics::to_json(run_scenario(direct)));
}

TEST(RunReplicated, ZeroReplicationsThrows) {
  const auto config = sim::SwarmConfig::small(core::Algorithm::kAltruism, 0);
  EXPECT_THROW(run_replicated(config, 0), std::invalid_argument);
}

TEST(RunReplicated, ReciprocityYieldsEmptyCompletionEstimates) {
  auto config = sim::SwarmConfig::small(core::Algorithm::kReciprocity, 0);
  config.n_peers = 30;
  config.max_time = 60.0;
  const auto rep = run_replicated(config, 2);
  ASSERT_TRUE(rep.sweep.complete()) << rep.sweep.degradation_summary();
  EXPECT_EQ(rep.mean_completion.samples, 0u);  // nobody ever finished
  EXPECT_NEAR(rep.completed_fraction.mean, 0.0, 1e-12);
}

}  // namespace
}  // namespace coopnet::exp
