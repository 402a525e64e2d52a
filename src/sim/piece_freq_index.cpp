#include "sim/piece_freq_index.h"

#include <stdexcept>
#include <string>

#include "util/byteio.h"

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

void PieceFreqIndex::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u32(n_pieces_);
  sink.put_u32(levels_);
  sink.put_span(freq_.data(), freq_.size());
}

void PieceFreqIndex::checkpoint_load(util::ByteSource& src) {
  const std::uint32_t n = src.get_u32();
  const std::uint32_t levels = src.get_u32();
  if (n != n_pieces_ || levels != levels_) {
    throw util::SerializeError(
        "PieceFreqIndex restore: serialized shape (" + std::to_string(n) +
        " pieces, " + std::to_string(levels) + " levels) != configured (" +
        std::to_string(n_pieces_) + ", " + std::to_string(levels_) + ")");
  }
  // Re-derive the level bitmasks from scratch: start from the init()
  // all-frequencies-zero state and replay one increment per count, which
  // reuses the single-bit update invariant instead of duplicating it.
  const PieceId pieces = n_pieces_;
  const std::uint32_t max = levels_;
  std::vector<std::uint32_t> counts(pieces);
  src.get_span(counts.data(), counts.size());
  for (PieceId p = 0; p < pieces; ++p) {
    if (counts[p] >= max) {
      throw util::SerializeError(
          "PieceFreqIndex restore: piece " + std::to_string(p) +
          " frequency " + std::to_string(counts[p]) + " exceeds max " +
          std::to_string(max - 1));
    }
  }
  init(pieces, max - 1);
  for (PieceId p = 0; p < pieces; ++p) {
    for (std::uint32_t i = 0; i < counts[p]; ++i) increment(p);
  }
}

}  // namespace coopnet::sim
