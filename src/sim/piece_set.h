// Per-peer piece bitmaps.
//
// The file is divided into M pieces; each peer tracks which it holds with a
// word-packed bitset sized at construction. The hot operation is "find the
// rarest piece the uploader can offer that the receiver still needs", which
// iterates set bits of (offer & ~have & ~pending) a word at a time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/types.h"

namespace coopnet::sim {

/// Fixed-capacity bitset over piece ids [0, size).
class PieceSet {
 public:
  PieceSet() = default;
  explicit PieceSet(PieceId size);

  PieceId size() const { return size_; }
  PieceId count() const { return count_; }
  bool complete() const { return count_ == size_; }
  bool empty() const { return count_ == 0; }

  bool has(PieceId p) const;
  /// Unchecked membership test for hot paths: same result as has(), but the
  /// range check is a debug-only assert instead of a throw.
  bool test(PieceId p) const {
    assert(p < size_ && "PieceSet::test: piece id out of range");
    return (words_[p >> 6] >> (p & 63)) & 1u;
  }
  /// Adds p; returns false if already present.
  bool add(PieceId p);
  /// Removes p; returns false if absent.
  bool remove(PieceId p);
  /// Sets every piece.
  void fill();
  void clear();

  /// Calls `fn(piece)` for every piece in (*this & ~excluded); returns the
  /// number of visited pieces. Requires matching sizes; the callback may
  /// not mutate either set.
  template <typename Fn>
  std::size_t for_each_offerable(const PieceSet& excluded, Fn&& fn) const {
    if (excluded.size_ != size_) {
      throw std::invalid_argument("PieceSet::for_each_offerable: size");
    }
    std::size_t visited = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w] & ~excluded.words_[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        bits &= bits - 1;
        fn(static_cast<PieceId>(w * 64 + static_cast<std::size_t>(bit)));
        ++visited;
      }
    }
    return visited;
  }

  /// True if (*this & ~excluded) is non-empty: this set can offer something
  /// to a peer whose held/pending/locked union is `excluded`.
  bool can_offer(const PieceSet& excluded) const;

  /// True when the two sets share at least one piece. Requires matching
  /// sizes.
  bool intersects(const PieceSet& other) const;

  /// Makes the set a | b. Requires matching sizes.
  void assign_union(const PieceSet& a, const PieceSet& b);

  bool operator==(const PieceSet& other) const = default;

  /// Calls `fn(piece)` for every piece in the set, ascending. The callback
  /// may not mutate the set.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        bits &= bits - 1;
        fn(static_cast<PieceId>(w * 64 + static_cast<std::size_t>(bit)));
      }
    }
  }

  /// Raw bitmask words (64 pieces per word, ascending). Bits past size()
  /// are always clear. Used by the rarity index's masked walks.
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  std::size_t word_count() const { return words_.size(); }
  const std::uint64_t* words() const { return words_.data(); }

  /// Replaces the set with word_count() raw words copied from `raw`
  /// (host byte order, any alignment) and recounts. Returns false, and
  /// leaves the set empty, when a bit at or above size() is set.
  bool assign_words(const void* raw);

 private:
  void check(PieceId p) const;

  std::vector<std::uint64_t> words_;
  PieceId size_ = 0;
  PieceId count_ = 0;
};

}  // namespace coopnet::sim
