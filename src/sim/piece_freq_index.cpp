#include "sim/piece_freq_index.h"

#include <stdexcept>

namespace coopnet::sim {

void PieceFreqIndex::init(PieceId n_pieces, std::uint32_t max_freq) {
  if (n_pieces == 0) throw std::invalid_argument("PieceFreqIndex: 0 pieces");
  n_pieces_ = n_pieces;
  levels_ = max_freq + 1;
  words_ = (static_cast<std::size_t>(n_pieces) + 63) / 64;
  freq_.assign(n_pieces, 0);
  // Every frequency starts at 0, so every level contains every piece. Tail
  // bits past n_pieces stay clear so mask walks never see phantom pieces.
  at_most_.assign(static_cast<std::size_t>(levels_) * words_, ~0ULL);
  const std::uint32_t tail = n_pieces % 64;
  if (tail != 0) {
    const std::uint64_t tail_mask = (std::uint64_t{1} << tail) - 1;
    for (std::uint32_t f = 0; f < levels_; ++f) {
      at_most_[static_cast<std::size_t>(f) * words_ + words_ - 1] = tail_mask;
    }
  }
}

PieceId PieceFreqIndex::pick_rarest(const PieceSet& offer,
                                    const PieceSet& excluded,
                                    util::Rng& rng) const {
  // Walk ascending over offerable pieces, but once a best frequency is
  // known, mask the remaining walk down to at_most_[best]: exactly the
  // pieces at or below the running prefix minimum -- the only ones the
  // seed's full scan resets or tie-draws on. Every piece visited after the
  // first therefore has f <= best_freq by construction.
  PieceId best = kNoPiece;
  std::uint32_t best_freq = 0;
  std::uint32_t ties = 0;
  const std::uint64_t* level = nullptr;
  const std::size_t n_words = words_;
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t bits = offer.word(w) & ~excluded.word(w);
    if (level != nullptr) bits &= level[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(bit));
      const std::uint32_t f = freq_[piece];
      if (best == kNoPiece || f < best_freq) {
        best = piece;
        best_freq = f;
        ties = 1;
        // Tighten the mask to the new minimum, pruning this word's
        // remaining bits too.
        level = level_words(f);
        bits &= level[w];
      } else {
        // f == best_freq is guaranteed by the mask; reproduce the seed
        // reservoir draw (same ties counter, same bound, same order).
        ++ties;
        if (rng.uniform_u64(ties) == 0) best = piece;
      }
    }
  }
  return best;
}

}  // namespace coopnet::sim
