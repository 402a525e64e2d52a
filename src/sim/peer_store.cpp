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

void save_piece_set(ByteSink& sink, const PieceSet& set) {
  sink.put_span(set.words(), set.word_count());
}

/// Loads whole words; a bit at or above the set's size is rejected, as
/// PieceSet::add would reject it.
void load_piece_set(ByteSource& src, PieceSet& set) {
  if (!set.assign_words(src.view(set.word_count(), sizeof(std::uint64_t)))) {
    throw SerializeError("peer piece set: a bit at or above piece " +
                         std::to_string(set.size()) + " is set");
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
  total_uploaded_ = 0;
  leecher_uploaded_ = 0;
  freerider_usable_ = 0;
  total_downloaded_raw_ = 0;

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

void PeerStore::checkpoint_save(util::ByteSink& sink) const {
  const std::size_t n = size();
  // Per peer: kind, state, capacity, four int fields, epoch; five piece
  // sets; three times; four byte counters; the ledger row's length.
  const std::size_t words = (std::size_t{piece_space_} + 63) / 64;
  std::size_t bytes = 8 + 4 + n * (1 + 1 + 8 + 4 * 8 + 4 + 5 * 8 * words +
                                   3 * 8 + 4 * 8 + 8);
  for (const std::vector<EdgeCounters>& row : ledger_) {
    bytes += row.size() * kLedgerRecordBytes;
  }
  bytes += 4 * 8 + 8 + 4 * active_ids_.size();
  sink.reserve(bytes);
  [[maybe_unused]] const std::size_t start = sink.size();

  sink.put_u64(n);
  sink.put_u32(piece_space_);

  for (std::size_t i = 0; i < n; ++i) {
    sink.put_u8(static_cast<std::uint8_t>(kind_[i]));
    sink.put_u8(static_cast<std::uint8_t>(state_[i]));
    sink.put_double(capacity_[i]);
    sink.put_i64(upload_slots_[i]);
    sink.put_i64(busy_slots_[i]);
    sink.put_i64(incoming_count_[i]);
    sink.put_i64(collusion_group_[i]);
    sink.put_u32(epoch_[i]);

    save_piece_set(sink, pieces_[i]);
    save_piece_set(sink, locked_[i]);
    save_piece_set(sink, pending_[i]);
    save_piece_set(sink, unavailable_[i]);
    save_piece_set(sink, transferable_[i]);

    sink.put_double(arrival_time_[i]);
    sink.put_double(bootstrap_time_[i]);
    sink.put_double(finish_time_[i]);

    sink.put_i64(uploaded_bytes_[i]);
    sink.put_i64(downloaded_usable_bytes_[i]);
    sink.put_i64(downloaded_raw_bytes_[i]);
    sink.put_i64(usable_from_leechers_bytes_[i]);

    sink.put_u64(ledger_[i].size());
    for (const EdgeCounters& e : ledger_[i]) {
      sink.put_u32(e.peer);
      sink.put_i64(e.deficit);
      sink.put_i64(e.received);
      sink.put_i64(e.round_received);
      sink.put_i64(e.prev_round_received);
    }
  }

  sink.put_i64(total_uploaded_);
  sink.put_i64(leecher_uploaded_);
  sink.put_i64(freerider_usable_);
  sink.put_i64(total_downloaded_raw_);

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

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t kind = src.get_u8();
    if (kind > static_cast<std::uint8_t>(PeerKind::kSeeder)) {
      throw SerializeError("PeerStore restore: peer kind out of range");
    }
    kind_[i] = static_cast<PeerKind>(kind);
    const std::uint8_t state = src.get_u8();
    if (state > static_cast<std::uint8_t>(PeerState::kLeft)) {
      throw SerializeError("PeerStore restore: peer state out of range");
    }
    state_[i] = static_cast<PeerState>(state);
    capacity_[i] = src.get_double();
    upload_slots_[i] = static_cast<int>(src.get_i64());
    busy_slots_[i] = static_cast<int>(src.get_i64());
    incoming_count_[i] = static_cast<int>(src.get_i64());
    collusion_group_[i] = static_cast<int>(src.get_i64());
    epoch_[i] = src.get_u32();

    load_piece_set(src, pieces_[i]);
    load_piece_set(src, locked_[i]);
    load_piece_set(src, pending_[i]);
    load_piece_set(src, unavailable_[i]);
    load_piece_set(src, transferable_[i]);

    arrival_time_[i] = src.get_double();
    bootstrap_time_[i] = src.get_double();
    finish_time_[i] = src.get_double();

    uploaded_bytes_[i] = src.get_i64();
    downloaded_usable_bytes_[i] = src.get_i64();
    downloaded_raw_bytes_[i] = src.get_i64();
    usable_from_leechers_bytes_[i] = src.get_i64();

    std::vector<EdgeCounters>& row = ledger_[i];
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

  total_uploaded_ = src.get_i64();
  leecher_uploaded_ = src.get_i64();
  freerider_usable_ = src.get_i64();
  total_downloaded_raw_ = src.get_i64();

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
  staged.nbr_offset_ = std::move(nbr_offset_);
  staged.nbr_data_ = std::move(nbr_data_);
  *this = std::move(staged);
}

}  // namespace coopnet::sim
