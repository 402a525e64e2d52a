#include "core/capacity.h"

#include <gtest/gtest.h>

#include <map>

namespace coopnet::core {
namespace {

TEST(CapacityDistribution, RejectsBadClasses) {
  EXPECT_THROW(CapacityDistribution({}), std::invalid_argument);
  EXPECT_THROW(CapacityDistribution({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(CapacityDistribution({{1.0, 0.5}}), std::invalid_argument);
  EXPECT_THROW(CapacityDistribution({{1.0, 0.7}, {2.0, 0.7}}),
               std::invalid_argument);
  EXPECT_THROW(CapacityDistribution({{1.0, -0.5}, {2.0, 1.5}}),
               std::invalid_argument);
}

TEST(CapacityDistribution, SampleHasExactClassCounts) {
  CapacityDistribution dist({{1.0, 0.5}, {2.0, 0.5}});
  util::Rng rng(1);
  const auto v = dist.sample(10, rng);
  ASSERT_EQ(v.size(), 10u);
  std::map<double, int> counts;
  for (double x : v) ++counts[x];
  EXPECT_EQ(counts[1.0], 5);
  EXPECT_EQ(counts[2.0], 5);
}

TEST(CapacityDistribution, LargestRemainderRounding) {
  // 3 users over {60%, 40%}: exact counts 1.8 and 1.2 -> 2 and 1.
  CapacityDistribution dist({{1.0, 0.6}, {2.0, 0.4}});
  util::Rng rng(2);
  const auto v = dist.sample(3, rng);
  std::map<double, int> counts;
  for (double x : v) ++counts[x];
  EXPECT_EQ(counts[1.0], 2);
  EXPECT_EQ(counts[2.0], 1);
}

TEST(CapacityDistribution, RemainderTiesGoToTheLowerClass) {
  // N = 50 over the default mix: exact counts 15, 12.5, 10, 7.5 and 5.
  // The 256 KiB and 1 MiB classes tie on remainder 0.5 for the one spare
  // slot; the lower class index (256 KiB) takes it.
  constexpr double kKiB = 1024.0;
  util::Rng rng(4);
  const auto v = CapacityDistribution::default_mix().sample(50, rng);
  std::map<double, int> counts;
  for (double x : v) ++counts[x];
  EXPECT_EQ(counts[128 * kKiB], 15);
  EXPECT_EQ(counts[256 * kKiB], 13);
  EXPECT_EQ(counts[512 * kKiB], 10);
  EXPECT_EQ(counts[1024 * kKiB], 7);
  EXPECT_EQ(counts[4096 * kKiB], 5);
}

TEST(CapacityDistribution, SampleZeroIsEmpty) {
  util::Rng rng(3);
  EXPECT_TRUE(CapacityDistribution::homogeneous(1.0).sample(0, rng).empty());
}

TEST(CapacityDistribution, DefaultMixIsValidAndSkewedLow) {
  const auto mix = CapacityDistribution::default_mix();
  util::Rng rng(4);
  const auto v = mix.sample(1000, rng);
  EXPECT_TRUE(satisfies_capacity_assumption(v));
  // More slow users than fast ones.
  int slow = 0, fast = 0;
  for (double x : v) {
    if (x <= 256.0 * 1024) ++slow;
    if (x >= 4096.0 * 1024) ++fast;
  }
  EXPECT_GT(slow, fast);
}

TEST(CapacityDistribution, HomogeneousSampleAllEqual) {
  util::Rng rng(5);
  const auto v = CapacityDistribution::homogeneous(7.0).sample(20, rng);
  for (double x : v) EXPECT_EQ(x, 7.0);
}

TEST(SortedDescending, Sorts) {
  const auto v = sorted_descending({1.0, 3.0, 2.0});
  EXPECT_EQ(v, (std::vector<double>{3.0, 2.0, 1.0}));
}

TEST(CapacityAssumption, HoldsForBalancedVectors) {
  EXPECT_TRUE(satisfies_capacity_assumption({3.0, 2.0, 2.0}));
}

TEST(CapacityAssumption, FailsWhenOneUserDominates) {
  // U_1 = 10 > 2 + 3 = sum of the rest.
  EXPECT_FALSE(satisfies_capacity_assumption({10.0, 3.0, 2.0}));
}

TEST(CapacityAssumption, FailsOnNonPositiveCapacity) {
  EXPECT_FALSE(satisfies_capacity_assumption({1.0, 0.0}));
  EXPECT_FALSE(satisfies_capacity_assumption({1.0, -1.0}));
}

TEST(TotalCapacity, Sums) {
  EXPECT_EQ(total_capacity({1.0, 2.0, 3.5}), 6.5);
  EXPECT_EQ(total_capacity({}), 0.0);
}

}  // namespace
}  // namespace coopnet::core
