// Struct-of-arrays peer storage.
//
// All mutable per-peer simulation state lives here, one dense parallel
// array per field, addressed by PeerId. The layout exists for scale: hot
// paths (interest checks, slot accounting, timer guards) touch one small
// array per field instead of striding through ~500-byte Peer objects, and
// whole-population scans (fairness samples, audit recounts) become linear
// walks over contiguous scalars. Peer (sim/peer.h) is a thin handle over
// this store; the Swarm owns the store and hands out handles.
//
// Invariants the store maintains itself:
//   * the active registry (`active_ids`) lists exactly the peers whose
//     state is kActive, in deterministic (transition-history) order --
//     all state changes must go through set_state;
//   * the byte totals equal recount_byte_totals(), the sums of the
//     per-peer counters -- byte counters must be credited through the
//     credit_* methods;
//   * each peer's exchange ledger is sorted by the other peer's id, so
//     every walk over it runs in ascending id order;
//   * every neighbor row is strictly ascending (build_neighbors throws
//     otherwise), so a walk over a row's ids can look each one up in a
//     ledger row with one LedgerCursor;
//   * the hungry index (`hungry`) holds exactly the peers that are active
//     and whose `unavailable` set is not complete -- every change to an
//     `unavailable` set must be followed by refresh_hungry.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/piece_set.h"
#include "sim/types.h"

namespace coopnet::util {
class ByteSink;
class ByteSource;
}  // namespace coopnet::util

namespace coopnet::sim {

/// What kind of participant a peer is.
enum class PeerKind : std::uint8_t {
  kCompliant,  // follows the configured exchange algorithm
  kFreeRider,  // downloads but never uploads (attacks per AttackConfig)
  kStrategic,  // BitTyrant-style: uploads the bare minimum that keeps
               // reciprocity flowing, never volunteers (exploits
               // BitTorrent's tit-for-tat; behaves compliantly elsewhere)
  kSeeder,     // holds the full file, never downloads, never leaves
};

/// Lifecycle of a peer within a run.
enum class PeerState : std::uint8_t {
  kPending,  // not yet arrived
  kActive,   // exchanging pieces
  kChurned,  // abruptly departed mid-download; may rejoin (fault injection)
  kLeft,     // departed for good (finished, or churned without rejoining)
};

/// One record of a peer's exchange ledger: what it has exchanged with
/// `peer`. A peer with no record has exchanged nothing, and every reader
/// treats it as all zeros.
struct EdgeCounters {
  PeerId peer = kNoPeer;
  /// Pieces sent to `peer` minus pieces received from it (FairTorrent).
  std::int64_t deficit = 0;
  Bytes received = 0;             // from `peer`, over the whole run
  Bytes round_received = 0;       // from `peer`, this rechoke round
  Bytes prev_round_received = 0;  // from `peer`, the previous round
};

/// Population-wide sums of the per-peer byte counters.
struct ByteTotals {
  Bytes uploaded = 0;
  Bytes leecher_uploaded = 0;  // by non-seeders
  Bytes freerider_usable = 0;  // usable bytes free-riders got from leechers
  Bytes downloaded_raw = 0;
  bool operator==(const ByteTotals&) const = default;
};

/// A forward cursor over one ledger row: answers lookups for a
/// non-decreasing sequence of ids with one walk over the row, no search.
/// Looking up every id of a neighbor row, or of a list kept in row order,
/// takes one cursor. Debug builds assert that the ids never go back. The
/// row must not change while the cursor is in use.
class LedgerCursor {
 public:
  explicit LedgerCursor(const std::vector<EdgeCounters>& row)
      : next_(row.data()), end_(row.data() + row.size()) {}

  /// The record for `other`, or null when the row has none.
  const EdgeCounters* find(PeerId other) {
#ifndef NDEBUG
    assert(other >= last_ && "LedgerCursor: ids must not go back");
    last_ = other;
#endif
    while (next_ != end_ && next_->peer < other) ++next_;
    return next_ != end_ && next_->peer == other ? next_ : nullptr;
  }

 private:
  const EdgeCounters* next_;  // first record not below the last id asked
  const EdgeCounters* end_;
#ifndef NDEBUG
  PeerId last_ = 0;
#endif
};

class PeerStore {
 public:
  PeerStore() = default;
  /// Handles and scheduled events point into the arrays; the store must
  /// stay put.
  PeerStore(const PeerStore&) = delete;
  PeerStore& operator=(const PeerStore&) = delete;

  /// Sizes every array for `count` peers, each with piece sets over
  /// `pieces` pieces. All peers start kPending/kCompliant with zeroed
  /// counters and epoch 0.
  void init(std::size_t count, PieceId pieces);

  std::size_t size() const { return state_.size(); }
  PieceId piece_space() const { return piece_space_; }

  // --- scalar fields -----------------------------------------------------
  // Each field has a checked-in-debug accessor pair; the mutable overload
  // returns a reference so call sites read like the old Peer struct
  // (`++store.busy_slots(id)`).
  PeerKind& kind(PeerId id) { return at(kind_, id); }
  PeerKind kind(PeerId id) const { return at(kind_, id); }
  PeerState state(PeerId id) const { return at(state_, id); }
  double& capacity(PeerId id) { return at(capacity_, id); }
  double capacity(PeerId id) const { return at(capacity_, id); }
  int& upload_slots(PeerId id) { return at(upload_slots_, id); }
  int upload_slots(PeerId id) const { return at(upload_slots_, id); }
  int& busy_slots(PeerId id) { return at(busy_slots_, id); }
  int busy_slots(PeerId id) const { return at(busy_slots_, id); }
  int& incoming_count(PeerId id) { return at(incoming_count_, id); }
  int incoming_count(PeerId id) const { return at(incoming_count_, id); }
  int& collusion_group(PeerId id) { return at(collusion_group_, id); }
  int collusion_group(PeerId id) const { return at(collusion_group_, id); }
  std::uint32_t epoch(PeerId id) const { return at(epoch_, id); }
  /// Invalidates every event/reference that captured the old incarnation.
  void bump_epoch(PeerId id) { ++at(epoch_, id); }

  Seconds& arrival_time(PeerId id) { return at(arrival_time_, id); }
  Seconds arrival_time(PeerId id) const { return at(arrival_time_, id); }
  Seconds& bootstrap_time(PeerId id) { return at(bootstrap_time_, id); }
  Seconds bootstrap_time(PeerId id) const { return at(bootstrap_time_, id); }
  Seconds& finish_time(PeerId id) { return at(finish_time_, id); }
  Seconds finish_time(PeerId id) const { return at(finish_time_, id); }

  // --- piece sets ---------------------------------------------------------
  PieceSet& pieces(PeerId id) { return at(pieces_, id); }
  const PieceSet& pieces(PeerId id) const { return at(pieces_, id); }
  PieceSet& locked(PeerId id) { return at(locked_, id); }
  const PieceSet& locked(PeerId id) const { return at(locked_, id); }
  PieceSet& pending(PeerId id) { return at(pending_, id); }
  const PieceSet& pending(PeerId id) const { return at(pending_, id); }
  PieceSet& unavailable(PeerId id) { return at(unavailable_, id); }
  const PieceSet& unavailable(PeerId id) const {
    return at(unavailable_, id);
  }
  PieceSet& transferable(PeerId id) { return at(transferable_, id); }
  const PieceSet& transferable(PeerId id) const {
    return at(transferable_, id);
  }
  /// Writes pieces | locked into `transferable` and pieces | locked |
  /// pending into `unavailable` (auditor identity 4).
  void derive_sets(PeerId id, PieceSet& transferable,
                   PieceSet& unavailable) const;

  // --- hungry index ---------------------------------------------------------
  /// True when `id` is active and `unavailable(id)` is not complete: a peer
  /// that offers every piece (a seeder) can offer it something. Derived
  /// state, kept by set_state and refresh_hungry and rebuilt by init()
  /// and checkpoint_load; never serialized.
  bool hungry(PeerId id) const {
    check(id);
    return (hungry_[id / 64] >> (id % 64)) & 1u;
  }
  /// Recomputes `id`'s hungry bit from its state and unavailable set; call
  /// after every change to unavailable(id).
  void refresh_hungry(PeerId id) {
    check(id);
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    std::uint64_t& word = hungry_[id / 64];
    if (state_[id] == PeerState::kActive && !unavailable_[id].complete()) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }
  /// The hungry bits, 64 peers per word in ascending id order (bits past
  /// size() are clear); for util/bit_range.h's range counts.
  const std::uint64_t* hungry_words() const { return hungry_.data(); }

  // --- byte accounting -----------------------------------------------------
  // Reads are plain; writes go through credit_* so the O(1) population
  // totals cannot drift from the per-peer counters.
  Bytes uploaded_bytes(PeerId id) const { return at(uploaded_bytes_, id); }
  Bytes downloaded_usable_bytes(PeerId id) const {
    return at(downloaded_usable_bytes_, id);
  }
  Bytes downloaded_raw_bytes(PeerId id) const {
    return at(downloaded_raw_bytes_, id);
  }
  Bytes usable_from_leechers_bytes(PeerId id) const {
    return at(usable_from_leechers_bytes_, id);
  }
  void credit_uploaded(PeerId id, Bytes bytes) {
    at(uploaded_bytes_, id) += bytes;
    totals_.uploaded += bytes;
    if (kind(id) != PeerKind::kSeeder) totals_.leecher_uploaded += bytes;
  }
  void credit_downloaded_raw(PeerId id, Bytes bytes) {
    at(downloaded_raw_bytes_, id) += bytes;
    totals_.downloaded_raw += bytes;
  }
  void credit_downloaded_usable(PeerId id, Bytes bytes) {
    at(downloaded_usable_bytes_, id) += bytes;
  }
  void credit_usable_from_leechers(PeerId id, Bytes bytes) {
    at(usable_from_leechers_bytes_, id) += bytes;
    if (kind(id) == PeerKind::kFreeRider) totals_.freerider_usable += bytes;
  }

  /// Population-wide byte totals, maintained incrementally by the credit_*
  /// methods (exact integer sums, so byte-identical to a fresh scan).
  const ByteTotals& byte_totals() const { return totals_; }
  /// The same totals summed afresh (auditor identity 10).
  ByteTotals recount_byte_totals() const;

  // --- exchange ledger ------------------------------------------------------
  /// The peer's ledger, in ascending order of the other peer's id. Look
  /// records up with a LedgerCursor over it.
  const std::vector<EdgeCounters>& ledger(PeerId id) const {
    return at(ledger_, id);
  }
  /// The record for (id, other), inserted zeroed at its sorted position
  /// when absent.
  EdgeCounters& edge(PeerId id, PeerId other);
  /// Closes a rechoke round: every record's previous-round count becomes
  /// its current-round count, and the current round starts at zero.
  void end_round(PeerId id);
  /// Drops the record for (id, other), if any (a whitewashed identity).
  void forget(PeerId id, PeerId other);

  // --- neighbors (CSR) ----------------------------------------------------
  /// Freezes the adjacency lists into one contiguous CSR array. Must be
  /// called exactly once, after init(), with one list per peer. Throws
  /// std::logic_error unless every list is strictly ascending: strategies
  /// walk a row and its ledger row side by side (LedgerCursor).
  void build_neighbors(const std::vector<std::vector<PeerId>>& adjacency);
  std::size_t neighbor_count(PeerId id) const {
    check(id);
    return nbr_offset_[id + 1] - nbr_offset_[id];
  }
  const PeerId* neighbors_begin(PeerId id) const {
    check(id);
    return nbr_data_.data() + nbr_offset_[id];
  }
  const PeerId* neighbors_end(PeerId id) const {
    check(id);
    return nbr_data_.data() + nbr_offset_[id + 1];
  }

  // --- membership ----------------------------------------------------------
  /// The only way to change a peer's lifecycle state: keeps the active
  /// registry exact. Transition order is deterministic (driven solely by
  /// the simulation's event sequence), so iteration over active_ids() is
  /// deterministic too -- but its order is *arbitrary* (swap-remove), so
  /// only order-insensitive (commutative) work may iterate it. Anything
  /// whose side effects depend on visit order must walk ids in ascending
  /// order instead.
  void set_state(PeerId id, PeerState next);

  /// Dense list of exactly the peers whose state is kActive.
  const std::vector<PeerId>& active_ids() const { return active_ids_; }
  std::size_t active_count() const { return active_ids_.size(); }

  // --- checkpoint (see sim/checkpoint.h) -----------------------------------
  /// Serializes each run-time per-peer array as one column at its own
  /// width, the exchange ledgers (rows in ascending id order), and the
  /// active registry in its exact transition-history order. NOT saved: the
  /// build-time fields and CSR arrays, which the Swarm constructor sets
  /// from config + seed, and the derived sets, hungry index and byte
  /// totals, which restore recomputes.
  void checkpoint_save(util::ByteSink& sink) const;
  /// Restores into a store freshly init()'d with the same shape and
  /// derives its sets and hungry bits; throws util::SerializeError when
  /// the serialized shape does not match, a peer's primary sets overlap,
  /// or a ledger row is not strictly ascending and in range. A throw leaves
  /// the store half-written, so a restore loads into a staging store and
  /// adopt()s it once the strategy section has loaded too.
  void checkpoint_load(util::ByteSource& src);
  /// Takes every field of `staged`, a store filled by checkpoint_load,
  /// except the build-time fields and CSR arrays, which stay this store's
  /// own; then recounts the byte totals, which need the kinds.
  void adopt(PeerStore&& staged);

 private:
  template <typename T>
  T& at(std::vector<T>& v, PeerId id) {
    check(id);
    return v[id];
  }
  template <typename T>
  const T& at(const std::vector<T>& v, PeerId id) const {
    check(id);
    return v[id];
  }
  void check(PeerId id) const {
    assert(id < state_.size() && "PeerStore: peer id out of range");
    (void)id;
  }
  /// Only adopt() moves a store, and it keeps the moved-into object (and
  /// so every handle to it) in place.
  PeerStore& operator=(PeerStore&&) = default;

  PieceId piece_space_ = 0;

  std::vector<PeerKind> kind_;
  std::vector<PeerState> state_;
  std::vector<double> capacity_;
  std::vector<int> upload_slots_;
  std::vector<int> busy_slots_;
  std::vector<int> incoming_count_;
  std::vector<int> collusion_group_;
  std::vector<std::uint32_t> epoch_;

  std::vector<PieceSet> pieces_;
  std::vector<PieceSet> locked_;
  std::vector<PieceSet> pending_;
  std::vector<PieceSet> unavailable_;
  std::vector<PieceSet> transferable_;

  std::vector<std::uint64_t> hungry_;  // one bit per peer, see hungry()

  std::vector<Seconds> arrival_time_;
  std::vector<Seconds> bootstrap_time_;
  std::vector<Seconds> finish_time_;

  std::vector<Bytes> uploaded_bytes_;
  std::vector<Bytes> downloaded_usable_bytes_;
  std::vector<Bytes> downloaded_raw_bytes_;
  std::vector<Bytes> usable_from_leechers_bytes_;
  ByteTotals totals_;

  std::vector<std::vector<EdgeCounters>> ledger_;  // rows sorted by peer

  std::vector<std::uint32_t> nbr_offset_;  // size() + 1 entries
  std::vector<PeerId> nbr_data_;

  std::vector<PeerId> active_ids_;
  std::vector<std::uint32_t> active_pos_;  // kNoPos when not active

  static constexpr std::uint32_t kNoPos =
      std::numeric_limits<std::uint32_t>::max();
};

}  // namespace coopnet::sim
