// Tests for arrival processes, multiple seeders, and download-side
// back-pressure (the substrate knobs beyond the paper's flash crowd).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "exp/runner.h"
#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::sim {
namespace {

using core::Algorithm;

SwarmConfig base(std::uint64_t seed = 41) {
  auto config = SwarmConfig::small(Algorithm::kAltruism, seed);
  config.n_peers = 40;
  return config;
}

TEST(Arrivals, FlashCrowdWithinWindow) {
  auto config = base();
  config.arrivals = ArrivalProcess::kFlashCrowd;
  config.flash_crowd_window = 5.0;
  Swarm s(config, strategy::make_strategy(config.algorithm));
  for (PeerId i = 0; i < s.leechers(); ++i) {
    EXPECT_GE(s.peer(i).arrival_time(), 0.0);
    EXPECT_LE(s.peer(i).arrival_time(), 5.0);
  }
}

TEST(Arrivals, PoissonSpreadsBeyondFlashWindow) {
  auto config = base();
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate = 0.5;  // one peer every ~2 s on average
  Swarm s(config, strategy::make_strategy(config.algorithm));
  double last = 0.0;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    last = std::max(last, s.peer(i).arrival_time());
  }
  // 40 peers at rate 0.5/s: arrivals stretch over ~80 s on average.
  EXPECT_GT(last, 20.0);
}

TEST(Arrivals, StaggeredIsUniformlySpaced) {
  auto config = base();
  config.arrivals = ArrivalProcess::kStaggered;
  config.arrival_rate = 2.0;
  Swarm s(config, strategy::make_strategy(config.algorithm));
  std::vector<double> times;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    times.push_back(s.peer(i).arrival_time());
  }
  std::sort(times.begin(), times.end());
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_NEAR(times[i] - times[i - 1], 0.5, 1e-9);
  }
}

TEST(Arrivals, SwarmCompletesUnderEveryProcess) {
  for (ArrivalProcess proc :
       {ArrivalProcess::kFlashCrowd, ArrivalProcess::kPoisson,
        ArrivalProcess::kStaggered}) {
    auto config = base();
    config.arrivals = proc;
    config.arrival_rate = 2.0;
    config.max_time = 2000.0;
    const auto report = exp::run_scenario(config);
    EXPECT_NEAR(report.completed_fraction, 1.0, 1e-9)
        << static_cast<int>(proc);
  }
}

TEST(Arrivals, StaggeredArrivalsEaseBootstrapContention) {
  // Under BitTorrent, a trickle of newcomers into an established swarm
  // bootstraps faster than a flash crowd of mutual strangers.
  auto flash = base();
  flash.algorithm = Algorithm::kBitTorrent;
  flash.max_time = 2000.0;
  auto staggered = flash;
  staggered.arrivals = ArrivalProcess::kStaggered;
  staggered.arrival_rate = 1.0;
  const auto flash_report = exp::run_scenario(flash);
  const auto staggered_report = exp::run_scenario(staggered);
  ASSERT_FALSE(flash_report.bootstrap_times.empty());
  ASSERT_FALSE(staggered_report.bootstrap_times.empty());
  EXPECT_LT(staggered_report.bootstrap_summary.median,
            flash_report.bootstrap_summary.median);
}

TEST(Seeders, MultipleSeedersAllServe) {
  auto config = base();
  config.seeder_count = 3;
  config.max_time = 2000.0;
  Swarm s(config, strategy::make_strategy(config.algorithm));
  EXPECT_EQ(s.seeder_count(), 3u);
  s.run();
  for (std::size_t k = 0; k < 3; ++k) {
    const ConstPeer seeder = s.peer(static_cast<PeerId>(s.leechers() + k));
    EXPECT_TRUE(seeder.is_seeder());
    EXPECT_GT(seeder.uploaded_bytes(), 0) << k;
  }
  EXPECT_EQ(s.compliant_unfinished(), 0u);
}

TEST(Seeders, LeechersKnowEverySeeder) {
  auto config = base();
  config.seeder_count = 2;
  Swarm s(config, strategy::make_strategy(config.algorithm));
  for (PeerId i = 0; i < s.leechers(); ++i) {
    const auto nb = s.peer(i).neighbors();
    for (std::size_t k = 0; k < 2; ++k) {
      const auto seeder = static_cast<PeerId>(s.leechers() + k);
      EXPECT_EQ(std::count(nb.begin(), nb.end(), seeder), 1) << i;
    }
  }
}

TEST(Seeders, MoreSeedersBootstrapReciprocityFaster) {
  // Under pure reciprocity only seeders move data, so the Table II
  // n_S / N scaling is directly visible.
  auto one = base();
  one.algorithm = Algorithm::kReciprocity;
  one.seeder_capacity = 256.0 * 1024;  // scarce seeding, visible contention
  one.max_time = 100.0;
  auto four = one;
  four.seeder_count = 4;
  const auto r1 = exp::run_scenario(one);
  const auto r4 = exp::run_scenario(four);
  ASSERT_FALSE(r1.bootstrap_times.empty());
  ASSERT_FALSE(r4.bootstrap_times.empty());
  EXPECT_LT(r4.bootstrap_summary.median, r1.bootstrap_summary.median);
}

TEST(BackPressure, MaxIncomingIsRespected) {
  auto config = base();
  config.max_incoming = 2;
  auto strategy = strategy::make_strategy(config.algorithm);
  Swarm s(config, std::move(strategy));
  int max_seen = 0;
  const std::uint32_t probe = s.add_timer([&s, &max_seen] {
    for (PeerId i = 0; i < s.leechers(); ++i) {
      max_seen = std::max(max_seen, s.peer(i).incoming_count());
    }
  });
  for (double t = 0.5; t < 30.0; t += 0.5) {
    s.engine().schedule_at(t, make_timer_tag(kEvExternalTimer, probe));
  }
  s.run();
  EXPECT_GT(max_seen, 0);
  EXPECT_LE(max_seen, 2);
  EXPECT_EQ(s.compliant_unfinished(), 0u);
}

TEST(BackPressure, TighterLimitSlowsDownloads) {
  auto loose = base();
  loose.max_time = 3000.0;
  auto tight = loose;
  tight.max_incoming = 1;
  const auto loose_report = exp::run_scenario(loose);
  const auto tight_report = exp::run_scenario(tight);
  ASSERT_FALSE(loose_report.completion_times.empty());
  ASSERT_FALSE(tight_report.completion_times.empty());
  EXPECT_GT(tight_report.completion_summary.mean,
            loose_report.completion_summary.mean);
}

}  // namespace
}  // namespace coopnet::sim
