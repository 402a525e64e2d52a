// Contract tests for the struct-of-arrays peer store: the exchange ledger
// must stay ascending, the active registry must list exactly the live
// peers in a deterministic order, the hungry index must track state and
// unavailable sets through every transition and a checkpoint round trip,
// and out-of-range ids must trip the debug range assert.
#include "sim/peer_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/byteio.h"

namespace coopnet::sim {
namespace {

constexpr PieceId kPieces = 8;

// --- exchange ledger -------------------------------------------------------

std::vector<PeerId> ledger_peers(const PeerStore& store, PeerId id) {
  std::vector<PeerId> peers;
  for (const EdgeCounters& e : store.ledger(id)) peers.push_back(e.peer);
  return peers;
}

TEST(PeerStoreLedger, RowStaysAscendingAndRotatesAndForgets) {
  PeerStore store;
  store.init(6, kPieces);

  // Records land at their sorted position whatever the insertion order.
  store.edge(0, 4).received = 40;
  store.edge(0, 1).round_received = 10;
  store.edge(0, 5).deficit = -2;
  store.edge(0, 3).round_received = 30;
  EXPECT_EQ(ledger_peers(store, 0), (std::vector<PeerId>{1, 3, 4, 5}));

  // edge() finds an existing record instead of inserting a second one.
  store.edge(0, 4).received += 2;
  EXPECT_EQ(store.ledger(0).size(), 4u);
  ASSERT_NE(store.find_edge(0, 4), nullptr);
  EXPECT_EQ(store.find_edge(0, 4)->received, 42);
  // find_edge() never inserts.
  EXPECT_EQ(store.find_edge(0, 2), nullptr);
  EXPECT_EQ(store.ledger(0).size(), 4u);

  // end_round(): previous = current, and current restarts at zero.
  store.end_round(0);
  EXPECT_EQ(store.find_edge(0, 1)->prev_round_received, 10);
  EXPECT_EQ(store.find_edge(0, 3)->prev_round_received, 30);
  for (const EdgeCounters& e : store.ledger(0)) {
    EXPECT_EQ(e.round_received, 0) << e.peer;
  }
  EXPECT_EQ(store.find_edge(0, 4)->received, 42) << "lifetime count kept";

  // forget() removes one record and keeps the rest ascending; forgetting
  // an absent peer is a no-op.
  store.forget(0, 3);
  store.forget(0, 2);
  EXPECT_EQ(ledger_peers(store, 0), (std::vector<PeerId>{1, 4, 5}));
  EXPECT_EQ(store.find_edge(0, 3), nullptr);
}

// --- active registry --------------------------------------------------------

std::vector<PeerId> sorted_active(const PeerStore& store) {
  std::vector<PeerId> ids(store.active_ids().begin(),
                          store.active_ids().end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(PeerStoreActiveSet, ListsExactlyTheLivePeers) {
  PeerStore store;
  store.init(6, kPieces);

  store.set_state(1, PeerState::kActive);
  store.set_state(3, PeerState::kActive);
  store.set_state(4, PeerState::kActive);
  EXPECT_EQ(store.active_count(), 3u);
  EXPECT_EQ(sorted_active(store), (std::vector<PeerId>{1, 3, 4}));

  // Churn and departure both leave the registry; rejoining re-enters it.
  store.set_state(3, PeerState::kChurned);
  store.set_state(4, PeerState::kLeft);
  EXPECT_EQ(sorted_active(store), (std::vector<PeerId>{1}));
  store.set_state(3, PeerState::kActive);
  EXPECT_EQ(sorted_active(store), (std::vector<PeerId>{1, 3}));

  // Same-state transitions are no-ops (no duplicate registry entries).
  store.set_state(3, PeerState::kActive);
  EXPECT_EQ(store.active_count(), 2u);
}

TEST(PeerStoreActiveSet, OrderIsAFunctionOfTransitionHistory) {
  // Two stores fed the identical transition sequence must produce the
  // identical active_ids() order -- that determinism is what makes the
  // registry safe to iterate at all (commutative work only; the order
  // itself is arbitrary swap-remove order, not ascending).
  auto drive = [](PeerStore& store) {
    store.init(5, kPieces);
    for (PeerId id = 0; id < 5; ++id) store.set_state(id, PeerState::kActive);
    store.set_state(1, PeerState::kLeft);   // 4 takes position 1
    store.set_state(0, PeerState::kChurned);  // 3 takes position 0
    store.set_state(1, PeerState::kActive);   // rejoins at the back
  };
  PeerStore a, b;
  drive(a);
  drive(b);
  EXPECT_EQ(a.active_ids(), b.active_ids());
  // Spot-check the swap-remove mechanics documented above.
  EXPECT_EQ(a.active_ids(), (std::vector<PeerId>{3, 4, 2, 1}));
}

// --- hungry index -------------------------------------------------------------

/// The hungry bits as a list of ids, read through hungry().
std::vector<PeerId> hungry_ids(const PeerStore& store) {
  std::vector<PeerId> ids;
  for (PeerId id = 0; id < store.size(); ++id) {
    if (store.hungry(id)) ids.push_back(id);
  }
  return ids;
}

TEST(PeerStoreHungry, TracksStateAndUnavailableThroughEveryTransition) {
  PeerStore store;
  store.init(70, kPieces);  // two words, the second one partial
  EXPECT_TRUE(hungry_ids(store).empty());

  store.set_state(3, PeerState::kActive);
  store.set_state(66, PeerState::kActive);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3, 66}));

  // Filling the unavailable set takes the peer out once its bit is
  // refreshed; a freed reservation brings it back.
  for (PieceId piece = 0; piece < kPieces; ++piece) {
    store.unavailable(66).add(piece);
  }
  store.refresh_hungry(66);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3}));
  store.unavailable(66).remove(5);
  store.refresh_hungry(66);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3, 66}));

  // Only active peers are hungry: churn, departure and rejoin move the bit.
  store.set_state(3, PeerState::kChurned);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{66}));
  store.set_state(3, PeerState::kActive);
  store.set_state(66, PeerState::kLeft);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3}));
  store.set_state(66, PeerState::kActive);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3, 66}));

  // The words the seeders count expose the same bits.
  EXPECT_EQ(store.hungry_words()[0], std::uint64_t{1} << 3);
  EXPECT_EQ(store.hungry_words()[1], std::uint64_t{1} << 2);
}

TEST(PeerStoreHungry, CheckpointLoadRebuildsTheIndex) {
  PeerStore store;
  store.init(5, kPieces);
  for (PeerId id = 0; id < 5; ++id) store.set_state(id, PeerState::kActive);
  for (PieceId piece = 0; piece < kPieces; ++piece) {
    store.unavailable(1).add(piece);
  }
  store.refresh_hungry(1);
  store.set_state(4, PeerState::kChurned);
  ASSERT_EQ(hungry_ids(store), (std::vector<PeerId>{0, 2, 3}));

  util::ByteSink sink;
  store.checkpoint_save(sink);
  const std::string bytes = sink.take();
  PeerStore restored;
  restored.init(5, kPieces);
  util::ByteSource src(bytes);
  restored.checkpoint_load(src);
  EXPECT_EQ(hungry_ids(restored), hungry_ids(store));

  // The index is derived, not saved: the restored store saves the same
  // bytes.
  util::ByteSink again;
  restored.checkpoint_save(again);
  EXPECT_EQ(again.take(), bytes);
}

// --- debug range guard -------------------------------------------------------

TEST(PeerStoreDeathTest, OutOfRangePeerIdAssertsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "range asserts compile out of NDEBUG builds";
#else
  PeerStore store;
  store.init(4, kPieces);
  EXPECT_DEATH((void)store.state(4), "peer id out of range");
  EXPECT_DEATH((void)store.pieces(100), "peer id out of range");
#endif
}

}  // namespace
}  // namespace coopnet::sim
