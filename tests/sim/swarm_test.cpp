// Swarm machinery tests driven through a scriptable stub strategy.
#include "sim/swarm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "strategy/factory.h"

namespace coopnet::sim {
namespace {

/// A strategy with no autonomous behaviour; tests drive transfers manually.
class NullStrategy : public ExchangeStrategy {
 public:
  std::optional<UploadAction> next_upload(Swarm&, PeerId) override {
    return std::nullopt;
  }
};

/// Altruism-like behaviour with optional locked deliveries.
class ScriptedStrategy : public ExchangeStrategy {
 public:
  explicit ScriptedStrategy(bool locked) : locked_(locked) {}
  std::optional<UploadAction> next_upload(Swarm& swarm,
                                          PeerId uploader) override {
    ++decisions;
    const auto& needy = swarm.needy_neighbors(uploader);
    if (needy.empty()) return std::nullopt;
    const PeerId to = needy[swarm.rng().uniform_u64(needy.size())];
    const PieceId piece = swarm.pick_piece(uploader, to);
    if (piece == kNoPiece) return std::nullopt;
    return UploadAction{to, piece, locked_};
  }
  bool seeder_delivers_locked() const override { return locked_; }
  int decisions = 0;

 private:
  bool locked_;
};

SwarmConfig tiny_config() {
  SwarmConfig c;
  c.n_peers = 8;
  c.file_bytes = 4 * 64 * 1024;  // 4 pieces of 64 KB
  c.piece_bytes = 64 * 1024;
  c.capacities = core::CapacityDistribution::homogeneous(64.0 * 1024);
  c.seeder_capacity = 128.0 * 1024;
  c.graph.degree = 7;  // fully connected
  c.flash_crowd_window = 1.0;
  c.max_time = 500.0;
  c.seed = 3;
  return c;
}

TEST(Swarm, ConstructionBuildsPopulation) {
  Swarm s(tiny_config(), std::make_unique<NullStrategy>());
  EXPECT_EQ(s.leechers(), 8u);
  EXPECT_EQ(s.seeder_id(), 8u);
  const ConstPeer seeder = s.peer(s.seeder_id());
  EXPECT_TRUE(seeder.is_seeder());
  EXPECT_TRUE(seeder.pieces().complete());
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_EQ(s.peer(i).kind(), PeerKind::kCompliant);
    EXPECT_TRUE(s.peer(i).pieces().empty());
    EXPECT_EQ(s.peer(i).capacity(), 64.0 * 1024);
  }
  EXPECT_EQ(s.compliant_unfinished(), 8u);
}

TEST(Swarm, EveryNeighborRowIsStrictlyAscending) {
  // Large-view free-riders have the longest rows and three seeders end
  // every leecher's row: the rows a ledger walk leans on most.
  SwarmConfig config = SwarmConfig::small(core::Algorithm::kFairTorrent, 5);
  config.n_peers = 200;
  config.free_rider_fraction = 0.2;
  config.attack.large_view = true;
  config.seeder_count = 3;
  Swarm s(config, std::make_unique<NullStrategy>());
  std::size_t longest_free_rider = 0;
  std::size_t longest_compliant = 0;
  for (PeerId id = 0; id < s.peer_count(); ++id) {
    const NeighborRange row = s.peer(id).neighbors();
    EXPECT_EQ(std::ranges::adjacent_find(row, std::greater_equal<>{}),
              row.end())
        << "row " << id;
    if (id >= s.leechers()) {
      EXPECT_EQ(row.size(), s.leechers()) << "seeder row " << id;
      continue;
    }
    ASSERT_GE(row.size(), 3u);
    EXPECT_EQ(row[row.size() - 3], s.seeder_id()) << "row " << id;
    EXPECT_EQ(row[row.size() - 1], s.seeder_id() + 2) << "row " << id;
    std::size_t& longest = s.peer(id).is_free_rider() ? longest_free_rider
                                                      : longest_compliant;
    longest = std::max(longest, row.size());
  }
  EXPECT_GT(longest_free_rider, longest_compliant) << "large views in use";
}

TEST(Swarm, NullStrategyRunsOnlySeederUploads) {
  Swarm s(tiny_config(), std::make_unique<NullStrategy>());
  s.run();
  // The seeder alone serves everyone eventually (unlimited max_time).
  EXPECT_EQ(s.compliant_unfinished(), 0u);
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_TRUE(s.peer(i).finished());
    EXPECT_EQ(s.peer(i).uploaded_bytes(), 0);
  }
}

TEST(Swarm, ScriptedRunCompletesAndConservesBytes) {
  Swarm s(tiny_config(), std::make_unique<ScriptedStrategy>(false));
  s.run();
  EXPECT_EQ(s.compliant_unfinished(), 0u);
  Bytes uploaded = 0, raw = 0;
  for (const ConstPeer p : s.peers()) {
    uploaded += p.uploaded_bytes();
    raw += p.downloaded_raw_bytes();
  }
  // Eq. 1 as a trace invariant: every uploaded byte was either received or
  // discarded because the receiver had just departed.
  EXPECT_GE(uploaded, raw);
  EXPECT_LE(uploaded - raw, 8 * s.config().piece_bytes);
  // Every compliant peer ends with the full file.
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_EQ(s.peer(i).downloaded_usable_bytes(), s.config().file_bytes);
  }
}

TEST(Swarm, RunTwiceThrows) {
  Swarm s(tiny_config(), std::make_unique<NullStrategy>());
  s.run();
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(Swarm, NullStrategyThrows) {
  EXPECT_THROW(Swarm(tiny_config(), nullptr), std::invalid_argument);
}

TEST(Swarm, DeterministicUnderSameSeed) {
  auto run_once = [] {
    Swarm s(tiny_config(), std::make_unique<ScriptedStrategy>(false));
    s.run();
    std::vector<double> finish;
    for (PeerId i = 0; i < 8; ++i) finish.push_back(s.peer(i).finish_time());
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Swarm, StartTransferPreconditions) {
  Swarm s(tiny_config(), std::make_unique<NullStrategy>());
  // Peers have not arrived yet: transfers must be refused.
  EXPECT_FALSE(s.start_transfer(s.seeder_id(), 0, 0, false));
}

TEST(Swarm, LockedDeliveriesStayUnusableUntilMadeUsable) {
  auto config = tiny_config();
  config.max_time = 50.0;
  Swarm s(config, std::make_unique<ScriptedStrategy>(true));
  s.run();
  // All payloads were delivered locked and nothing ever unlocked them.
  EXPECT_EQ(s.compliant_unfinished(), 8u);
  Bytes raw = 0, usable = 0;
  for (PeerId i = 0; i < 8; ++i) {
    raw += s.peer(i).downloaded_raw_bytes();
    usable += s.peer(i).downloaded_usable_bytes();
    EXPECT_FALSE(s.peer(i).finished());
  }
  EXPECT_GT(raw, 0);
  EXPECT_EQ(usable, 0);
}

TEST(Swarm, BootstrapCountsFirstDeliveryEvenWhenLocked) {
  auto config = tiny_config();
  config.max_time = 50.0;
  Swarm s(config, std::make_unique<ScriptedStrategy>(true));
  s.run();
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_TRUE(s.peer(i).bootstrapped()) << i;
  }
}

TEST(Swarm, MakeUsableUnlocksAndAttributesSource) {
  auto config = tiny_config();
  config.max_time = 30.0;
  Swarm s(config, std::make_unique<ScriptedStrategy>(true));
  s.run();
  // Find a locked piece and unlock it manually, attributing to a leecher.
  for (PeerId i = 0; i < 8; ++i) {
    Peer p = s.peer(i);
    if (p.locked().empty()) continue;
    PieceId piece = kNoPiece;
    for (PieceId q = 0; q < p.locked().size(); ++q) {
      if (p.locked().has(q)) {
        piece = q;
        break;
      }
    }
    ASSERT_NE(piece, kNoPiece);
    const Bytes before = p.downloaded_usable_bytes();
    s.make_usable(i, piece, /*source=*/1);
    EXPECT_TRUE(p.pieces().has(piece));
    EXPECT_FALSE(p.locked().has(piece));
    EXPECT_EQ(p.downloaded_usable_bytes(), before + config.piece_bytes);
    EXPECT_EQ(p.usable_from_leechers_bytes(), config.piece_bytes);
    // Unlocking again is a no-op.
    s.make_usable(i, piece, 1);
    EXPECT_EQ(p.downloaded_usable_bytes(), before + config.piece_bytes);
    return;
  }
  FAIL() << "no locked piece found to exercise make_usable";
}

TEST(Swarm, FreeRidersNeverUpload) {
  auto config = tiny_config();
  config.n_peers = 10;
  config.free_rider_fraction = 0.3;
  Swarm s(config, std::make_unique<ScriptedStrategy>(false));
  s.run();
  std::size_t free_riders = 0;
  for (PeerId i = 0; i < 10; ++i) {
    const ConstPeer p = s.peer(i);
    if (p.is_free_rider()) {
      ++free_riders;
      EXPECT_EQ(p.uploaded_bytes(), 0);
      EXPECT_GT(p.downloaded_usable_bytes(), 0);  // altruism still serves them
    }
  }
  EXPECT_EQ(free_riders, 3u);
}

TEST(Swarm, SeederBytesNotCountedAsLeecherUploads) {
  Swarm s(tiny_config(), std::make_unique<NullStrategy>());
  s.run();
  EXPECT_GT(s.total_uploaded_bytes(), 0);
  EXPECT_EQ(s.leecher_uploaded_bytes(), 0);
}

TEST(Swarm, ReputationLedgerTracksRealUploads) {
  Swarm s(tiny_config(), std::make_unique<ScriptedStrategy>(false));
  s.run();
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_NEAR(s.reputation(i),
                static_cast<double>(s.peer(i).uploaded_bytes()), 1e-6);
  }
  EXPECT_THROW(s.add_reported_upload(0, -5.0), std::invalid_argument);
}

TEST(Swarm, CollusionRingMembership) {
  auto config = tiny_config();
  config.n_peers = 10;
  config.free_rider_fraction = 0.3;
  config.attack.collusion = true;
  Swarm s(config, std::make_unique<NullStrategy>());
  std::vector<PeerId> ring;
  for (PeerId i = 0; i < 10; ++i) {
    if (s.peer(i).collusion_group() >= 0) ring.push_back(i);
  }
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_TRUE(s.same_collusion_ring(ring[0], ring[1]));
  for (PeerId i = 0; i < 10; ++i) {
    if (s.peer(i).collusion_group() < 0) {
      EXPECT_FALSE(s.same_collusion_ring(ring[0], i));
    }
  }
}

TEST(Swarm, FinishedPeersLeaveAndStopReceiving) {
  Swarm s(tiny_config(), std::make_unique<ScriptedStrategy>(false));
  s.run();
  for (PeerId i = 0; i < 8; ++i) {
    EXPECT_EQ(s.peer(i).state(), PeerState::kLeft);
    EXPECT_EQ(s.peer(i).downloaded_usable_bytes(), s.config().file_bytes);
  }
}

TEST(Swarm, MaxTimeCapsTheRun) {
  auto config = tiny_config();
  config.max_time = 0.5;  // nobody can finish a piece this fast
  Swarm s(config, std::make_unique<ScriptedStrategy>(false));
  s.run();
  EXPECT_LE(s.engine().now(), 0.5 + 1e-9);
  EXPECT_EQ(s.compliant_unfinished(), 8u);
}

// The chunked loop sim/checkpoint.h documents must end at max_time even
// when peers are still active there: their tick chains keep events queued
// past the horizon, so finished() alone never turns true.
TEST(Swarm, DocumentedChunkedLoopEndsAtMaxTimeWithPeersStillActive) {
  SwarmConfig config = SwarmConfig::small(core::Algorithm::kReciprocity, 3);
  config.max_time = 30.0;
  Swarm straight(config, strategy::make_strategy(config.algorithm));
  straight.run();

  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start();
  const Seconds every = 7.0;
  int chunks = 0;
  Seconds t = swarm.engine().now();
  while (!swarm.finished() && t < swarm.config().max_time) {
    t = std::min(t + every, swarm.config().max_time);
    swarm.advance_until(t);
    ASSERT_LT(++chunks, 100) << "the documented loop does not end";
  }
  EXPECT_EQ(chunks, 5);
  for (PeerId id = 0; id < swarm.leechers(); ++id) {
    EXPECT_FALSE(swarm.peer(id).finished()) << id;
  }
  EXPECT_FALSE(swarm.active_ids().empty());
  EXPECT_FALSE(swarm.finished())
      << "finished() alone would have ended the loop";
  EXPECT_EQ(swarm.engine().events_processed(),
            straight.engine().events_processed());
}

}  // namespace
}  // namespace coopnet::sim
