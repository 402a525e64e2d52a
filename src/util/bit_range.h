// Counting and selecting the set bits of one id range of a word-packed
// bitset (64 ids per word, ascending), one word at a time.
//
// A range [begin, end) may start and end inside a word; the partial
// first and last words are masked, so bits outside the range never
// count. Used by the seeders' upload path (Swarm::seeder_action), which
// picks a uniformly random hungry leecher in O(n / 64) word operations
// instead of testing n neighbors one by one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace coopnet::util {

/// Word `w` of `words`, with every bit outside [begin, end) cleared. `w`
/// must hold at least one id of the (non-empty) range.
inline std::uint64_t range_word(const std::uint64_t* words, std::size_t w,
                                std::size_t begin, std::size_t end) {
  std::uint64_t bits = words[w];
  const std::size_t lo = w * 64;
  if (begin > lo) bits &= ~std::uint64_t{0} << (begin - lo);
  if (end - lo < 64) bits &= (std::uint64_t{1} << (end - lo)) - 1;
  return bits;
}

/// The number of set bits in [begin, end).
inline std::size_t count_bits_in(const std::uint64_t* words,
                                 std::size_t begin, std::size_t end) {
  if (begin >= end) return 0;
  std::size_t count = 0;
  for (std::size_t w = begin / 64; w <= (end - 1) / 64; ++w) {
    count += static_cast<std::size_t>(
        std::popcount(range_word(words, w, begin, end)));
  }
  return count;
}

/// The position of the k-th set bit (k = 0 is the lowest) in
/// [begin, end), or `end` when the range holds k or fewer set bits.
inline std::size_t select_bit_in(const std::uint64_t* words,
                                 std::size_t begin, std::size_t end,
                                 std::size_t k) {
  if (begin >= end) return end;
  for (std::size_t w = begin / 64; w <= (end - 1) / 64; ++w) {
    std::uint64_t bits = range_word(words, w, begin, end);
    const auto here = static_cast<std::size_t>(std::popcount(bits));
    if (k >= here) {
      k -= here;
      continue;
    }
    for (; k > 0; --k) bits &= bits - 1;  // drop the k lower set bits
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return end;
}

}  // namespace coopnet::util
