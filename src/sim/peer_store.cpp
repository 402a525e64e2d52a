#include "sim/peer_store.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "util/byteio.h"

namespace coopnet::sim {

namespace {

using util::ByteSink;
using util::ByteSource;
using util::SerializeError;

/// One column of piece sets: every peer's words, peer after peer.
void save_piece_sets(ByteSink& sink, const std::vector<PieceSet>& sets) {
  for (const PieceSet& set : sets) sink.put_span(set.words(), set.word_count());
}

/// Loads whole words; a bit at or above the set's size is rejected, as
/// PieceSet::add would reject it.
void load_piece_sets(ByteSource& src, std::vector<PieceSet>& sets) {
  for (PieceSet& set : sets) {
    if (!set.assign_words(src.view(set.word_count(), sizeof(std::uint64_t)))) {
      throw SerializeError("peer piece set: a bit at or above piece " +
                           std::to_string(set.size()) + " is set");
    }
  }
}

/// Bytes of one exchange-ledger record: the other peer's u32 id, then the
/// deficit and the three receipt counters.
constexpr std::size_t kLedgerRecordBytes = 4 + 4 * 8;

}  // namespace

void PeerStore::init(std::size_t count, PieceId pieces) {
  piece_space_ = pieces;

  kind_.assign(count, PeerKind::kCompliant);
  state_.assign(count, PeerState::kPending);
  capacity_.assign(count, 0.0);
  upload_slots_.assign(count, 0);
  busy_slots_.assign(count, 0);
  incoming_count_.assign(count, 0);
  collusion_group_.assign(count, -1);
  epoch_.assign(count, 0);

  pieces_.assign(count, PieceSet(pieces));
  locked_.assign(count, PieceSet(pieces));
  pending_.assign(count, PieceSet(pieces));
  unavailable_.assign(count, PieceSet(pieces));
  transferable_.assign(count, PieceSet(pieces));

  hungry_.assign((count + 63) / 64, 0);  // nobody is active yet

  arrival_time_.assign(count, 0.0);
  bootstrap_time_.assign(count, -1.0);
  finish_time_.assign(count, -1.0);

  uploaded_bytes_.assign(count, 0);
  downloaded_usable_bytes_.assign(count, 0);
  downloaded_raw_bytes_.assign(count, 0);
  usable_from_leechers_bytes_.assign(count, 0);
  totals_ = {};

  ledger_.assign(count, {});

  nbr_offset_.assign(count + 1, 0);
  nbr_data_.clear();

  active_ids_.clear();
  active_pos_.assign(count, kNoPos);
}

void PeerStore::build_neighbors(
    const std::vector<std::vector<PeerId>>& adjacency) {
  assert(adjacency.size() == size() &&
         "PeerStore::build_neighbors: one list per peer");
  assert(nbr_data_.empty() && "PeerStore::build_neighbors: already built");
  std::size_t total = 0;
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    if (std::ranges::adjacent_find(adjacency[i], std::greater_equal<>{}) !=
        adjacency[i].end()) {
      throw std::logic_error("PeerStore::build_neighbors: row " +
                             std::to_string(i) +
                             " is not strictly ascending");
    }
    nbr_offset_[i] = static_cast<std::uint32_t>(total);
    total += adjacency[i].size();
  }
  nbr_offset_[adjacency.size()] = static_cast<std::uint32_t>(total);
  nbr_data_.reserve(total);
  for (const auto& list : adjacency) {
    nbr_data_.insert(nbr_data_.end(), list.begin(), list.end());
  }
}

void PeerStore::set_state(PeerId id, PeerState next) {
  PeerState& slot = at(state_, id);
  const PeerState prev = slot;
  if (prev == next) return;
  slot = next;
  refresh_hungry(id);
  if (next == PeerState::kActive) {
    active_pos_[id] = static_cast<std::uint32_t>(active_ids_.size());
    active_ids_.push_back(id);
  } else if (prev == PeerState::kActive) {
    // Swap-remove: the last active peer takes the vacated position. The
    // resulting order is a pure function of the transition history, which
    // is deterministic; it is NOT sorted, so only commutative work may
    // iterate active_ids().
    const std::uint32_t pos = active_pos_[id];
    assert(pos != kNoPos && active_ids_[pos] == id);
    const PeerId moved = active_ids_.back();
    active_ids_[pos] = moved;
    active_pos_[moved] = pos;
    active_ids_.pop_back();
    active_pos_[id] = kNoPos;
  }
}

EdgeCounters& PeerStore::edge(PeerId id, PeerId other) {
  std::vector<EdgeCounters>& row = at(ledger_, id);
  auto it = std::ranges::lower_bound(row, other, {}, &EdgeCounters::peer);
  if (it == row.end() || it->peer != other) it = row.insert(it, {other});
  return *it;
}

void PeerStore::end_round(PeerId id) {
  for (EdgeCounters& e : at(ledger_, id)) {
    e.prev_round_received = e.round_received;
    e.round_received = 0;
  }
}

void PeerStore::forget(PeerId id, PeerId other) {
  std::vector<EdgeCounters>& row = at(ledger_, id);
  auto it = std::ranges::lower_bound(row, other, {}, &EdgeCounters::peer);
  if (it != row.end() && it->peer == other) row.erase(it);
}

void PeerStore::derive_sets(PeerId id, PieceSet& transferable,
                            PieceSet& unavailable) const {
  transferable.assign_union(pieces(id), locked(id));
  unavailable.assign_union(transferable, pending(id));
}

ByteTotals PeerStore::recount_byte_totals() const {
  ByteTotals sum;
  for (std::size_t i = 0; i < size(); ++i) {
    sum.uploaded += uploaded_bytes_[i];
    if (kind_[i] != PeerKind::kSeeder) {
      sum.leecher_uploaded += uploaded_bytes_[i];
    }
    if (kind_[i] == PeerKind::kFreeRider) {
      sum.freerider_usable += usable_from_leechers_bytes_[i];
    }
    sum.downloaded_raw += downloaded_raw_bytes_[i];
  }
  return sum;
}

void PeerStore::checkpoint_save(util::ByteSink& sink) const {
  const std::size_t n = size();
  // Per peer: the state byte, three 4-byte counters, three piece sets, two
  // times, four byte counters and the ledger row's length.
  const std::size_t words = (std::size_t{piece_space_} + 63) / 64;
  std::size_t bytes =
      8 + 4 + n * (1 + 3 * 4 + 3 * 8 * words + 2 * 8 + 4 * 8 + 8);
  for (const std::vector<EdgeCounters>& row : ledger_) {
    bytes += row.size() * kLedgerRecordBytes;
  }
  bytes += 8 + 4 * active_ids_.size();
  sink.reserve(bytes);
  [[maybe_unused]] const std::size_t start = sink.size();

  sink.put_u64(n);
  sink.put_u32(piece_space_);

  static_assert(sizeof(PeerState) == 1);
  sink.put_bytes(state_.data(), n);
  sink.put_span(busy_slots_.data(), n);
  sink.put_span(incoming_count_.data(), n);
  sink.put_span(epoch_.data(), n);
  save_piece_sets(sink, pieces_);
  save_piece_sets(sink, locked_);
  save_piece_sets(sink, pending_);
  sink.put_span(bootstrap_time_.data(), n);
  sink.put_span(finish_time_.data(), n);
  sink.put_span(uploaded_bytes_.data(), n);
  sink.put_span(downloaded_usable_bytes_.data(), n);
  sink.put_span(downloaded_raw_bytes_.data(), n);
  sink.put_span(usable_from_leechers_bytes_.data(), n);

  for (const std::vector<EdgeCounters>& row : ledger_) {
    sink.put_u64(row.size());
    for (const EdgeCounters& e : row) {
      sink.put_u32(e.peer);
      sink.put_i64(e.deficit);
      sink.put_i64(e.received);
      sink.put_i64(e.round_received);
      sink.put_i64(e.prev_round_received);
    }
  }

  sink.put_u64(active_ids_.size());
  sink.put_span(active_ids_.data(), active_ids_.size());
  assert(sink.size() - start == bytes &&
         "PeerStore::checkpoint_save: size formula out of date");
}

void PeerStore::checkpoint_load(util::ByteSource& src) {
  const std::size_t n = src.get_count();
  if (n != size()) {
    throw SerializeError("PeerStore restore: serialized peer count " +
                         std::to_string(n) + " != configured " +
                         std::to_string(size()));
  }
  const std::uint32_t pieces = src.get_u32();
  if (pieces != piece_space_) {
    throw SerializeError("PeerStore restore: serialized piece space " +
                         std::to_string(pieces) + " != configured " +
                         std::to_string(piece_space_));
  }

  const char* states = src.view(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto state = static_cast<std::uint8_t>(states[i]);
    if (state > static_cast<std::uint8_t>(PeerState::kLeft)) {
      throw SerializeError("PeerStore restore: peer state out of range");
    }
    state_[i] = static_cast<PeerState>(state);
  }
  src.get_span(busy_slots_.data(), n);
  src.get_span(incoming_count_.data(), n);
  src.get_span(epoch_.data(), n);
  load_piece_sets(src, pieces_);
  load_piece_sets(src, locked_);
  load_piece_sets(src, pending_);
  for (PeerId id = 0; id < n; ++id) {
    derive_sets(id, transferable_[id], unavailable_[id]);
    // The union is as large as its parts only when they are disjoint, as
    // auditor identity 4 requires.
    if (unavailable_[id].count() != pieces_[id].count() +
                                        locked_[id].count() +
                                        pending_[id].count()) {
      throw SerializeError("PeerStore restore: peer " + std::to_string(id) +
                           "'s pieces, locked and pending sets overlap");
    }
  }
  src.get_span(bootstrap_time_.data(), n);
  src.get_span(finish_time_.data(), n);
  src.get_span(uploaded_bytes_.data(), n);
  src.get_span(downloaded_usable_bytes_.data(), n);
  src.get_span(downloaded_raw_bytes_.data(), n);
  src.get_span(usable_from_leechers_bytes_.data(), n);

  for (std::vector<EdgeCounters>& row : ledger_) {
    row.resize(src.get_count(kLedgerRecordBytes));
    std::uint64_t next_min = 0;
    for (EdgeCounters& e : row) {
      e.peer = src.get_ascending_id(next_min, n);
      e.deficit = src.get_i64();
      e.received = src.get_i64();
      e.round_received = src.get_i64();
      e.prev_round_received = src.get_i64();
    }
  }

  // The active registry's exact transition-history order feeds
  // order-sensitive iteration downstream; restore it verbatim and rebuild
  // the position index from it.
  const std::size_t actives = src.get_count(4);
  active_ids_.clear();
  active_ids_.reserve(actives);
  active_pos_.assign(n, kNoPos);
  for (std::size_t i = 0; i < actives; ++i) {
    const PeerId id = src.get_u32();
    if (id >= n || state_[id] != PeerState::kActive ||
        active_pos_[id] != kNoPos) {
      throw SerializeError("PeerStore restore: active registry entry " +
                           std::to_string(id) +
                           " is out of range, not active, or duplicated");
    }
    active_pos_[id] = static_cast<std::uint32_t>(active_ids_.size());
    active_ids_.push_back(id);
  }
  for (PeerId id = 0; id < n; ++id) {
    if (state_[id] == PeerState::kActive && active_pos_[id] == kNoPos) {
      throw SerializeError("PeerStore restore: active peer " +
                           std::to_string(id) +
                           " missing from the active registry");
    }
  }

  // The hungry index is derived state: rebuild it from what just loaded.
  for (PeerId id = 0; id < n; ++id) refresh_hungry(id);
}

void PeerStore::adopt(PeerStore&& staged) {
  assert(staged.size() == size() && staged.piece_space_ == piece_space_);
  staged.kind_ = std::move(kind_);
  staged.capacity_ = std::move(capacity_);
  staged.upload_slots_ = std::move(upload_slots_);
  staged.collusion_group_ = std::move(collusion_group_);
  staged.arrival_time_ = std::move(arrival_time_);
  staged.nbr_offset_ = std::move(nbr_offset_);
  staged.nbr_data_ = std::move(nbr_data_);
  *this = std::move(staged);
  totals_ = recount_byte_totals();
}

}  // namespace coopnet::sim
