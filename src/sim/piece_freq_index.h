// Frequency-bucketed piece-rarity index.
//
// The seed rarest-first scan walked every offerable piece and looked up its
// frequency; at paper scale that is ~500 array probes per pick. This index
// keeps, for every frequency level f, a bitmask of the pieces with
// frequency <= f (`at_most_[f]`). Bumping a piece's frequency touches
// exactly one bit (the piece leaves level f on increment, re-enters level
// f-1 on decrement), and a rarest-first pick intersects the offer mask with
// the running-minimum level so it only ever visits the pieces the seed
// scan's reservoir actually acted on.
//
// pick_rarest reproduces the seed scan's RNG draw sequence EXACTLY: the
// seed visits offerable pieces ascending and only resets or tie-draws on
// pieces whose frequency is <= the running prefix minimum -- precisely the
// pieces this walk enumerates, in the same order, with the same tie
// counters. Byte-identical audited runs depend on this (see
// tests/sim/piece_selection_test.cpp and the golden equivalence suite).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/piece_set.h"
#include "sim/types.h"
#include "util/rng.h"

namespace coopnet::sim {

/// Per-piece usable-copy counts with cumulative frequency-bucket bitmasks.
class PieceFreqIndex {
 public:
  PieceFreqIndex() = default;

  /// Sizes the index for `n_pieces` pieces with frequencies guaranteed to
  /// stay in [0, max_freq]. All frequencies start at 0.
  void init(PieceId n_pieces, std::uint32_t max_freq);

  PieceId pieces() const { return n_pieces_; }
  std::uint32_t max_freq() const { return levels_ - 1; }

  /// Unchecked in release builds: `piece` must be < pieces(). The swarm's
  /// hot paths always index with ids produced by in-range piece sets.
  std::uint32_t freq(PieceId piece) const {
    assert(piece < n_pieces_ && "PieceFreqIndex::freq: piece out of range");
    return freq_[piece];
  }

  void increment(PieceId piece) {
    assert(piece < n_pieces_);
    const std::uint32_t f = freq_[piece]++;
    assert(f + 1 < levels_ && "PieceFreqIndex: frequency exceeds max_freq");
    // The piece leaves level f; it stays in every level >= f+1.
    level_word(f, piece) &= ~bit_of(piece);
  }

  void decrement(PieceId piece) {
    assert(piece < n_pieces_);
    assert(freq_[piece] > 0 && "PieceFreqIndex: decrement below zero");
    const std::uint32_t f = --freq_[piece];
    // The piece re-enters level f; it never left the levels above.
    level_word(f, piece) |= bit_of(piece);
  }

  /// Rarest offerable piece in (offer & ~excluded) with the seed scan's
  /// reservoir tie-break, drawing from `rng` with the exact bound sequence
  /// the seed's full scan would draw. kNoPiece when nothing is offerable.
  PieceId pick_rarest(const PieceSet& offer, const PieceSet& excluded,
                      util::Rng& rng) const;

  /// Words of the `at_most_[f]` bitmask (word_count() words). Exposed for
  /// the property tests, which recount it against the raw frequencies.
  const std::uint64_t* level_words(std::uint32_t f) const {
    assert(f < levels_);
    return at_most_.data() + static_cast<std::size_t>(f) * words_;
  }
  std::size_t word_count() const { return words_; }

 private:
  std::uint64_t& level_word(std::uint32_t f, PieceId piece) {
    return at_most_[static_cast<std::size_t>(f) * words_ + piece / 64];
  }
  static std::uint64_t bit_of(PieceId piece) {
    return std::uint64_t{1} << (piece % 64);
  }

  std::vector<std::uint32_t> freq_;
  /// levels_ x words_ row-major bitmasks: bit p of row f set iff
  /// freq_[p] <= f.
  std::vector<std::uint64_t> at_most_;
  std::size_t words_ = 0;
  std::uint32_t levels_ = 0;
  PieceId n_pieces_ = 0;
};

}  // namespace coopnet::sim
