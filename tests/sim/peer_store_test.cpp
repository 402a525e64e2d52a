// Contract tests for the struct-of-arrays peer store: slot recycling must
// keep epoch-guarded identity (no stale-index aliasing), the active
// registry must list exactly the live peers in a deterministic order, the
// hungry index must track state and unavailable sets through every
// transition and a checkpoint round trip, and out-of-range ids must trip
// the debug range assert.
#include "sim/peer_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/byteio.h"

namespace coopnet::sim {
namespace {

constexpr PieceId kPieces = 8;

// --- slot reuse ------------------------------------------------------------

TEST(PeerStoreSlotReuse, AcquireReturnsReleasedSlotWithFreshState) {
  PeerStore store;
  store.init(4, kPieces);

  // Live a small life on peer 2: activate, accumulate state, depart.
  store.set_state(2, PeerState::kActive);
  store.kind(2) = PeerKind::kFreeRider;
  store.pieces(2).add(3);
  store.pending(2).add(5);
  store.credit_uploaded(2, 100);
  store.credit_downloaded_raw(2, 200);
  store.credit_usable_from_leechers(2, 50);
  store.edge(2, 1).received = 200;
  store.set_state(2, PeerState::kLeft);

  const std::uint32_t old_epoch = store.epoch(2);
  store.release_slot(2);
  // The epoch moves at release time: a scheduled event or cached PeerId
  // captured before the release already observes a stale incarnation,
  // whether or not the slot is ever re-acquired.
  EXPECT_GT(store.epoch(2), old_epoch);
  EXPECT_EQ(store.free_slot_count(), 1u);

  const PeerId id = store.acquire_slot();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(store.free_slot_count(), 0u);

  // The new incarnation starts from init() values...
  EXPECT_EQ(store.state(id), PeerState::kPending);
  EXPECT_EQ(store.kind(id), PeerKind::kCompliant);
  EXPECT_TRUE(store.pieces(id).empty());
  EXPECT_TRUE(store.pending(id).empty());
  EXPECT_EQ(store.uploaded_bytes(id), 0);
  EXPECT_EQ(store.downloaded_raw_bytes(id), 0);
  EXPECT_EQ(store.usable_from_leechers_bytes(id), 0);
  EXPECT_TRUE(store.ledger(id).empty());
  // ...except the epoch, which keeps counting up across lives.
  EXPECT_GT(store.epoch(id), old_epoch);
}

TEST(PeerStoreSlotReuse, AggregatesMatchPerPeerSumsAcrossRecycling) {
  PeerStore store;
  store.init(3, kPieces);
  store.kind(1) = PeerKind::kFreeRider;

  store.set_state(0, PeerState::kActive);
  store.set_state(1, PeerState::kActive);
  store.credit_uploaded(0, 1000);
  store.credit_downloaded_raw(1, 600);
  store.credit_usable_from_leechers(1, 600);

  store.set_state(1, PeerState::kLeft);
  store.release_slot(1);
  ASSERT_EQ(store.acquire_slot(), 1u);

  // The recycled peer's counters were folded out of the aggregates, so the
  // O(1) totals still equal a fresh scan of the per-peer arrays.
  Bytes uploaded = 0, raw = 0, fr_usable = 0;
  for (PeerId id = 0; id < 3; ++id) {
    uploaded += store.uploaded_bytes(id);
    raw += store.downloaded_raw_bytes(id);
    if (store.kind(id) == PeerKind::kFreeRider) {
      fr_usable += store.usable_from_leechers_bytes(id);
    }
  }
  EXPECT_EQ(store.total_uploaded_bytes(), uploaded);
  EXPECT_EQ(store.total_downloaded_raw_bytes(), raw);
  EXPECT_EQ(store.freerider_usable_bytes(), fr_usable);
}

TEST(PeerStoreSlotReuse, VersionCountersStayMonotonicAcrossLives) {
  PeerStore store;
  store.init(2, kPieces);

  // A memo stamped against the first life's versions...
  InterestMemo memo;
  memo.offer_ver = store.pieces_ver(0);
  memo.avail_ver = store.unavail_ver(0);
  memo.can_offer = true;

  store.set_state(0, PeerState::kActive);
  store.set_state(0, PeerState::kLeft);
  store.release_slot(0);
  ASSERT_EQ(store.acquire_slot(), 0u);

  // ...must never validate against the next life: both counters moved.
  EXPECT_NE(store.pieces_ver(0), memo.offer_ver);
  EXPECT_NE(store.unavail_ver(0), memo.avail_ver);
}

TEST(PeerStoreSlotReuse, AcquireFromEmptyFreeListReturnsNoPeer) {
  PeerStore store;
  store.init(2, kPieces);
  EXPECT_EQ(store.acquire_slot(), kNoPeer);
}

TEST(PeerStoreSlotReuse, LifoReuseOrderIsDeterministic) {
  PeerStore store;
  store.init(4, kPieces);
  for (PeerId id : {PeerId{0}, PeerId{1}, PeerId{2}}) {
    store.set_state(id, PeerState::kActive);
    store.set_state(id, PeerState::kLeft);
    store.release_slot(id);
  }
  EXPECT_EQ(store.acquire_slot(), 2u);
  EXPECT_EQ(store.acquire_slot(), 1u);
  EXPECT_EQ(store.acquire_slot(), 0u);
  EXPECT_EQ(store.acquire_slot(), kNoPeer);
}

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

  // A recycled slot starts with an empty ledger.
  store.set_state(0, PeerState::kActive);
  store.set_state(0, PeerState::kLeft);
  store.release_slot(0);
  ASSERT_EQ(store.acquire_slot(), 0u);
  EXPECT_TRUE(store.ledger(0).empty());
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

  // Filling the unavailable set takes the peer out once the version
  // moves; a freed reservation brings it back.
  for (PieceId piece = 0; piece < kPieces; ++piece) {
    store.unavailable(66).add(piece);
  }
  store.bump_unavail_ver(66);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3}));
  store.unavailable(66).remove(5);
  store.bump_unavail_ver(66);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3, 66}));

  // Only active peers are hungry: churn, departure and rejoin move the bit.
  store.set_state(3, PeerState::kChurned);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{66}));
  store.set_state(3, PeerState::kActive);
  store.set_state(66, PeerState::kLeft);
  EXPECT_EQ(hungry_ids(store), (std::vector<PeerId>{3}));

  // A recycled slot starts pending, so not hungry, until it arrives.
  store.release_slot(66);
  EXPECT_EQ(store.acquire_slot(), 66u);
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
  store.bump_unavail_ver(1);
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
