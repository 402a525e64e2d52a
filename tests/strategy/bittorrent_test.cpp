// Behavioural tests for the BitTorrent strategy: tit-for-tat slot
// discipline, the optimistic-unchoke bandwidth cap, and reciprocation.
#include "strategy/bittorrent.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::strategy {
namespace {

using core::Algorithm;
using sim::EdgeCounters;
using sim::LedgerCursor;
using sim::PeerId;
using sim::Swarm;
using sim::SwarmConfig;

SwarmConfig bt_config(std::uint64_t seed = 7) {
  SwarmConfig c;
  c.algorithm = Algorithm::kBitTorrent;
  c.n_peers = 40;
  c.file_bytes = 64 * 64 * 1024;  // 64 pieces
  c.piece_bytes = 64 * 1024;
  c.capacities = core::CapacityDistribution::homogeneous(128.0 * 1024);
  c.seeder_capacity = 256.0 * 1024;
  c.graph.degree = 20;
  c.flash_crowd_window = 2.0;
  c.rechoke_interval = 5.0;
  c.max_time = 2000.0;
  c.seed = seed;
  return c;
}

TEST(BitTorrent, SwarmCompletes) {
  Swarm s(bt_config(), make_strategy(Algorithm::kBitTorrent));
  s.run();
  EXPECT_EQ(s.compliant_unfinished(), 0u);
}

TEST(BitTorrent, ReciprocalPairsEmerge) {
  Swarm s(bt_config(), make_strategy(Algorithm::kBitTorrent));
  s.run();
  // Count peer pairs with traffic in both directions; tit-for-tat should
  // produce plenty.
  std::size_t reciprocal = 0;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    for (const EdgeCounters& e : s.peer(i).ledger()) {
      if (e.peer == s.seeder_id() || e.received <= 0) continue;
      const EdgeCounters* back =
          LedgerCursor(s.peer(e.peer).ledger()).find(i);
      if (back != nullptr && back->received > 0) ++reciprocal;
    }
  }
  EXPECT_GT(reciprocal, s.leechers());
}

TEST(BitTorrent, OptimisticShareIsBounded) {
  // With free-riders in the swarm, everything they receive flows through
  // optimistic slots; their share of leecher uploads must stay well below
  // their 30% population share and in the vicinity of alpha_BT = 20%.
  auto config = bt_config();
  config.free_rider_fraction = 0.3;
  Swarm s(config, make_strategy(Algorithm::kBitTorrent));
  s.run();
  const double susceptibility =
      static_cast<double>(s.freerider_usable_bytes()) /
      static_cast<double>(s.leecher_uploaded_bytes());
  EXPECT_LT(susceptibility, 0.30);
  EXPECT_GT(susceptibility, 0.01);
}

TEST(BitTorrent, FreeRidersAreNeverTitForTatUnchoked) {
  // Free-riders contribute nothing, so all their receipts come one piece
  // at a time through optimistic slots: their download volume per unit
  // time must trail compliant peers' by a wide margin mid-run.
  auto config = bt_config();
  config.free_rider_fraction = 0.25;
  config.max_time = 60.0;  // stop mid-swarm
  Swarm s(config, make_strategy(Algorithm::kBitTorrent));
  s.run();
  double fr_bytes = 0.0, ok_bytes = 0.0;
  std::size_t fr_n = 0, ok_n = 0;
  for (PeerId i = 0; i < s.leechers(); ++i) {
    const sim::ConstPeer p = s.peer(i);
    if (p.is_free_rider()) {
      fr_bytes += static_cast<double>(p.downloaded_usable_bytes());
      ++fr_n;
    } else {
      ok_bytes += static_cast<double>(p.downloaded_usable_bytes());
      ++ok_n;
    }
  }
  ASSERT_GT(fr_n, 0u);
  ASSERT_GT(ok_n, 0u);
  EXPECT_LT(fr_bytes / static_cast<double>(fr_n),
            0.8 * ok_bytes / static_cast<double>(ok_n));
}

TEST(BitTorrent, NbtOneBehavesMoreAltruistically) {
  // Ablation: n_bt = 1 with 2 slots gives a 50% optimistic share, so
  // free-riders capture more than with the default 4:1 split.
  auto narrow = bt_config(11);
  narrow.free_rider_fraction = 0.25;
  auto wide = narrow;
  wide.upload_slots = 2;
  wide.n_bt = 1;
  auto run_susc = [](const SwarmConfig& config) {
    Swarm s(config, make_strategy(Algorithm::kBitTorrent));
    s.run();
    return static_cast<double>(s.freerider_usable_bytes()) /
           static_cast<double>(s.leecher_uploaded_bytes());
  };
  EXPECT_GT(run_susc(wide), run_susc(narrow));
}

}  // namespace
}  // namespace coopnet::strategy
