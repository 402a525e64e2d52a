// Contract tests for the struct-of-arrays peer store: the exchange ledger
// must stay ascending and a LedgerCursor must answer as a search would,
// neighbor rows must be strictly ascending, the active registry must list
// exactly the live peers in a deterministic order, the hungry index must
// track state and unavailable sets through every transition and a
// checkpoint round trip, and out-of-range ids must trip the debug range
// assert.
#include "sim/peer_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/byteio.h"
#include "util/rng.h"

namespace coopnet::sim {
namespace {

constexpr PieceId kPieces = 8;

// --- exchange ledger -------------------------------------------------------

std::vector<PeerId> ledger_peers(const PeerStore& store, PeerId id) {
  std::vector<PeerId> peers;
  for (const EdgeCounters& e : store.ledger(id)) peers.push_back(e.peer);
  return peers;
}

/// One lookup: the record for (id, other), or null.
const EdgeCounters* lookup(const PeerStore& store, PeerId id, PeerId other) {
  return LedgerCursor(store.ledger(id)).find(other);
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
  ASSERT_NE(lookup(store, 0, 4), nullptr);
  EXPECT_EQ(lookup(store, 0, 4)->received, 42);
  // A cursor never inserts.
  EXPECT_EQ(lookup(store, 0, 2), nullptr);
  EXPECT_EQ(store.ledger(0).size(), 4u);

  // end_round(): previous = current, and current restarts at zero.
  store.end_round(0);
  EXPECT_EQ(lookup(store, 0, 1)->prev_round_received, 10);
  EXPECT_EQ(lookup(store, 0, 3)->prev_round_received, 30);
  for (const EdgeCounters& e : store.ledger(0)) {
    EXPECT_EQ(e.round_received, 0) << e.peer;
  }
  EXPECT_EQ(lookup(store, 0, 4)->received, 42) << "lifetime count kept";

  // forget() removes one record and keeps the rest ascending; forgetting
  // an absent peer is a no-op.
  store.forget(0, 3);
  store.forget(0, 2);
  EXPECT_EQ(ledger_peers(store, 0), (std::vector<PeerId>{1, 4, 5}));
  EXPECT_EQ(lookup(store, 0, 3), nullptr);
}

/// The record a binary search finds for `other`, or null.
const EdgeCounters* search(const std::vector<EdgeCounters>& row,
                           PeerId other) {
  auto it = std::ranges::lower_bound(row, other, {}, &EdgeCounters::peer);
  return it == row.end() || it->peer != other ? nullptr : &*it;
}

TEST(PeerStoreLedger, CursorAnswersAsABinarySearchWould) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    // A random strictly ascending row (empty in some trials), its ids
    // spaced so that gaps lie before, between and after the records.
    std::vector<EdgeCounters> row;
    const std::uint64_t records = rng.uniform_u64(8);
    PeerId id = static_cast<PeerId>(rng.uniform_u64(3));
    for (std::uint64_t r = 0; r < records; ++r) {
      row.push_back({id, static_cast<std::int64_t>(r)});
      id += 1 + static_cast<PeerId>(rng.uniform_u64(3));
    }
    // A non-decreasing query sequence from 0 to past the last record,
    // each id asked once, twice, or skipped.
    LedgerCursor cursor(row);
    for (PeerId q = 0; q <= id + 1; ++q) {
      const std::uint64_t asks = rng.uniform_u64(3);
      for (std::uint64_t a = 0; a < asks; ++a) {
        EXPECT_EQ(cursor.find(q), search(row, q))
            << "trial " << trial << " id " << q;
      }
    }
  }
}

TEST(PeerStoreLedger, CursorCoversTheRowsEdges) {
  const std::vector<EdgeCounters> empty;
  LedgerCursor none(empty);
  EXPECT_EQ(none.find(0), nullptr);
  EXPECT_EQ(none.find(7), nullptr);

  const std::vector<EdgeCounters> row = {{2}, {5}, {6}};
  LedgerCursor cursor(row);
  EXPECT_EQ(cursor.find(1), nullptr) << "before the first record";
  EXPECT_EQ(cursor.find(2), &row[0]);
  EXPECT_EQ(cursor.find(2), &row[0]) << "a repeated id";
  EXPECT_EQ(cursor.find(4), nullptr) << "between records";
  EXPECT_EQ(cursor.find(6), &row[2]);
  EXPECT_EQ(cursor.find(9), nullptr) << "after the last record";
  EXPECT_EQ(cursor.find(9), nullptr);
}

TEST(PeerStoreLedgerDeathTest, CursorAssertsWhenIdsGoBackInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the cursor's order assert compiles out of NDEBUG builds";
#else
  const std::vector<EdgeCounters> row = {{2}, {5}};
  EXPECT_DEATH(
      {
        LedgerCursor cursor(row);
        (void)cursor.find(5);
        (void)cursor.find(2);
      },
      "ids must not go back");
#endif
}

// --- neighbor rows -----------------------------------------------------------

TEST(PeerStoreNeighbors, BuildRejectsARowThatIsNotStrictlyAscending) {
  const std::vector<std::vector<PeerId>> descending = {{1, 2}, {2, 0}, {0}};
  const std::vector<std::vector<PeerId>> duplicate = {{1, 1}, {0}, {}};
  for (const auto& adjacency : {descending, duplicate}) {
    PeerStore store;
    store.init(3, kPieces);
    EXPECT_THROW(store.build_neighbors(adjacency), std::logic_error);
  }
  PeerStore store;
  store.init(3, kPieces);
  store.build_neighbors({{1, 2}, {0, 2}, {}});
  EXPECT_EQ(store.neighbor_count(0), 2u);
  EXPECT_EQ(store.neighbor_count(2), 0u);
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
  // Peer 1 holds every piece; the load derives its unavailable set from
  // that.
  for (PieceId piece = 0; piece < kPieces; ++piece) {
    store.pieces(1).add(piece);
    store.unavailable(1).add(piece);
    store.transferable(1).add(piece);
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
