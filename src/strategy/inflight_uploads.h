// The uploads a BitTorrent-family peer has in flight, by slot category.
//
// BitTorrent and PropShare split a peer's upload slots into one
// optimistic (altruism) slot and the reciprocal rest, and cap the uploads
// in flight in each category. An upload keeps the category it started in,
// even when the peer's optimistic target moves before the upload ends.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/types.h"
#include "util/byteio.h"

namespace coopnet::strategy {

class InFlightUploads {
 public:
  int optimistic() const { return busy_optimistic_; }
  int reciprocal() const { return busy_reciprocal_; }

  /// Registers a started upload. Entries are keyed by (to, piece): a
  /// second start of the same key re-categorizes the entry, and counts
  /// again.
  void start(const sim::Transfer& t, bool optimistic) {
    auto it = find(t);
    if (it == entries_.end()) it = entries_.emplace(it);
    *it = Entry{t.to, t.piece, optimistic};
    ++(optimistic ? busy_optimistic_ : busy_reciprocal_);
  }

  /// Releases a delivered or failed upload; a no-op for one that is not
  /// registered (a repeated notification).
  void finish(const sim::Transfer& t) {
    auto it = find(t);
    if (it == entries_.end()) return;
    --(it->optimistic ? busy_optimistic_ : busy_reciprocal_);
    entries_.erase(it);
  }

  void save(util::ByteSink& sink) const {
    sink.put_u32(static_cast<std::uint32_t>(busy_optimistic_));
    sink.put_u32(static_cast<std::uint32_t>(busy_reciprocal_));
    sink.put_u64(entries_.size());
    for (const Entry& e : entries_) {
      sink.put_u32(e.to);
      sink.put_u32(e.piece);
      sink.put_bool(e.optimistic);
    }
  }

  /// Throws util::SerializeError on a target id not below `peers` or a
  /// piece id not below `pieces`.
  void load(util::ByteSource& src, std::size_t peers, std::size_t pieces) {
    busy_optimistic_ = static_cast<int>(src.get_u32());
    busy_reciprocal_ = static_cast<int>(src.get_u32());
    entries_.resize(src.get_count(9));
    for (Entry& e : entries_) {
      e.to = src.get_id(peers);
      e.piece = src.get_id(pieces);
      e.optimistic = src.get_bool();
    }
  }

 private:
  struct Entry {
    sim::PeerId to = sim::kNoPeer;
    sim::PieceId piece = sim::kNoPiece;
    bool optimistic = false;
  };

  std::vector<Entry>::iterator find(const sim::Transfer& t) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&t](const Entry& e) {
                          return e.to == t.to && e.piece == t.piece;
                        });
  }

  std::vector<Entry> entries_;
  int busy_optimistic_ = 0;
  int busy_reciprocal_ = 0;
};

}  // namespace coopnet::strategy
