// Behavioural tests for T-Chain: locked delivery, reciprocation-gated
// unlocking, backlog throttling, free-rider starvation, and collusion.
#include "strategy/tchain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::strategy {
namespace {

using core::Algorithm;
using sim::PeerId;
using sim::Swarm;
using sim::SwarmConfig;

SwarmConfig tc_config(std::uint64_t seed = 13) {
  SwarmConfig c;
  c.algorithm = Algorithm::kTChain;
  c.n_peers = 40;
  c.file_bytes = 32 * 64 * 1024;  // 32 pieces
  c.piece_bytes = 64 * 1024;
  c.capacities = core::CapacityDistribution::homogeneous(128.0 * 1024);
  c.seeder_capacity = 256.0 * 1024;
  c.graph.degree = 20;
  c.flash_crowd_window = 2.0;
  c.tchain_grace = 8.0;
  c.max_time = 3000.0;
  c.seed = seed;
  return c;
}

TEST(TChain, CompliantSwarmCompletes) {
  Swarm s(tc_config(), make_strategy(Algorithm::kTChain));
  s.run();
  EXPECT_EQ(s.compliant_unfinished(), 0u);
  for (PeerId i = 0; i < s.leechers(); ++i) {
    EXPECT_TRUE(s.peer(i).locked().empty()) << i;  // everything unlocked
  }
}

TEST(TChain, CompliantPeersAllReciprocate) {
  Swarm s(tc_config(), make_strategy(Algorithm::kTChain));
  s.run();
  for (PeerId i = 0; i < s.leechers(); ++i) {
    EXPECT_GT(s.peer(i).uploaded_bytes(), 0) << i;
  }
}

TEST(TChain, PlainFreeRidersGetAlmostNothingUsable) {
  auto config = tc_config();
  config.free_rider_fraction = 0.25;
  Swarm s(config, make_strategy(Algorithm::kTChain));
  s.run();
  for (PeerId i = 0; i < s.leechers(); ++i) {
    const sim::ConstPeer p = s.peer(i);
    if (!p.is_free_rider()) continue;
    // No reciprocation, no keys: nothing ever becomes usable.
    EXPECT_EQ(p.downloaded_usable_bytes(), 0) << i;
    // And the backlog cap bounds even the locked payload they soak up
    // (plus slack for transfers already in flight when the cap tripped).
    EXPECT_LE(p.downloaded_raw_bytes(),
              static_cast<sim::Bytes>(config.tchain_backlog + 25) *
                  config.piece_bytes)
        << i;
  }
}

TEST(TChain, CollusionUnlocksPiecesForFree) {
  auto config = tc_config();
  config.free_rider_fraction = 0.25;
  config.attack.collusion = true;
  Swarm s(config, make_strategy(Algorithm::kTChain));
  s.run();
  sim::Bytes fr_usable = 0;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    const sim::ConstPeer p = s.peer(i);
    if (p.is_free_rider()) {
      fr_usable += p.downloaded_usable_bytes();
      EXPECT_EQ(p.uploaded_bytes(), 0) << i;  // still never upload
    }
  }
  // Collusion extracts something...
  EXPECT_GT(fr_usable, 0);
  // ...but Table III says very little: well under 5% of leecher uploads.
  EXPECT_LT(static_cast<double>(fr_usable),
            0.05 * static_cast<double>(s.leecher_uploaded_bytes()));
}

TEST(TChain, BacklogCapIsRespectedForCompliantPeers) {
  auto config = tc_config();
  config.tchain_backlog = 3;
  auto strategy = std::make_unique<TChainStrategy>();
  TChainStrategy* tc = strategy.get();
  Swarm s(config, std::move(strategy));
  // Sample the backlog invariant as the run progresses.
  std::size_t max_seen = 0;
  const std::uint32_t probe = s.add_timer([&s, tc, &max_seen] {
    for (PeerId i = 0; i < s.leechers(); ++i) {
      max_seen = std::max(max_seen, tc->backlog(i));
    }
  });
  for (double t = 5.0; t <= 60.0; t += 5.0) {
    s.engine().schedule_at(t,
                           sim::make_timer_tag(sim::kEvExternalTimer, probe));
  }
  s.run();
  EXPECT_GT(max_seen, 0u);
  // In-flight duties briefly coexist with a full queue; allow +slots slack.
  EXPECT_LE(max_seen, 3u + static_cast<std::size_t>(config.upload_slots));
}

TEST(TChain, UnlimitedBacklogAllowed) {
  auto config = tc_config();
  config.tchain_backlog = 0;  // unlimited
  Swarm s(config, make_strategy(Algorithm::kTChain));
  s.run();
  EXPECT_EQ(s.compliant_unfinished(), 0u);
}

TEST(TChain, AllDeliveriesAreLocked) {
  // Stop early and verify raw downloads outpace usable ones (pieces spend
  // time locked before reciprocation unlocks them).
  auto config = tc_config();
  config.max_time = 6.0;
  Swarm s(config, make_strategy(Algorithm::kTChain));
  s.run();
  sim::Bytes raw = 0, usable = 0;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    raw += s.peer(i).downloaded_raw_bytes();
    usable += s.peer(i).downloaded_usable_bytes();
  }
  EXPECT_GT(raw, 0);
  EXPECT_LT(usable, raw);
}

TEST(TChain, GraceReleasesEndgameObligations) {
  // A 2-peer + seeder corner: with so few exchange partners, obligations
  // frequently have no feasible target; only the grace timer lets the
  // swarm drain. Completion therefore proves the grace path works.
  auto config = tc_config();
  config.n_peers = 2;
  config.graph.degree = 1;
  config.tchain_grace = 3.0;
  config.max_time = 4000.0;
  Swarm s(config, make_strategy(Algorithm::kTChain));
  s.run();
  EXPECT_EQ(s.compliant_unfinished(), 0u);
}

}  // namespace
}  // namespace coopnet::strategy
