// Property tests for the word-packed bit-range helpers (util/bit_range.h):
// over random bitsets, every range -- starting and ending inside a word,
// on a word edge, or empty -- must count and select exactly the set
// bits a bit-by-bit scan finds.
#include "util/bit_range.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace coopnet::util {
namespace {

bool bit(const std::vector<std::uint64_t>& words, std::size_t i) {
  return (words[i / 64] >> (i % 64)) & 1u;
}

/// The set bits of [begin, end), one test at a time.
std::vector<std::size_t> naive_bits(const std::vector<std::uint64_t>& words,
                                    std::size_t begin, std::size_t end) {
  std::vector<std::size_t> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (bit(words, i)) out.push_back(i);
  }
  return out;
}

void expect_range_matches(const std::vector<std::uint64_t>& words,
                          std::size_t begin, std::size_t end) {
  SCOPED_TRACE("range [" + std::to_string(begin) + ", " +
               std::to_string(end) + ")");
  const std::vector<std::size_t> want = naive_bits(words, begin, end);
  EXPECT_EQ(count_bits_in(words.data(), begin, end), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(select_bit_in(words.data(), begin, end, k), want[k])
        << "k = " << k;
  }
  // Past the last set bit, select reports the end of the range.
  EXPECT_EQ(select_bit_in(words.data(), begin, end, want.size()), end);
}

/// Every range whose ends are on a word edge or one bit either side of
/// one, plus random ends, over `words`.
void check_all_ranges(const std::vector<std::uint64_t>& words, Rng& rng) {
  const std::size_t bits = words.size() * 64;
  std::vector<std::size_t> ends;
  for (std::size_t edge = 0; edge <= bits; edge += 64) {
    for (std::size_t e : {edge - 1, edge, edge + 1}) {
      if (e <= bits) ends.push_back(e);  // edge - 1 wraps at 0
    }
  }
  for (int i = 0; i < 6; ++i) ends.push_back(rng.uniform_u64(bits + 1));
  for (std::size_t begin : ends) {
    for (std::size_t end : ends) {
      if (begin <= end) expect_range_matches(words, begin, end);
    }
  }
}

TEST(BitRange, MatchesABitByBitScanOverRandomBitsets) {
  Rng rng(20261020);
  for (int trial = 0; trial < 200; ++trial) {
    // One to five words; densities from empty through sparse to full, so
    // the select walks both short and long runs inside a word.
    std::vector<std::uint64_t> words(1 + rng.uniform_u64(5));
    const double density = trial % 5 == 0 ? 0.0
                           : trial % 5 == 1 ? 1.0
                                            : rng.uniform01();
    for (std::size_t i = 0; i < words.size() * 64; ++i) {
      if (rng.uniform01() < density) {
        words[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
    check_all_ranges(words, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(BitRange, EmptyRangesHoldNothing) {
  const std::vector<std::uint64_t> words = {~std::uint64_t{0},
                                            ~std::uint64_t{0}};
  for (std::size_t at : {0u, 1u, 63u, 64u, 65u, 128u}) {
    EXPECT_EQ(count_bits_in(words.data(), at, at), 0u);
    EXPECT_EQ(select_bit_in(words.data(), at, at, 0), at);
  }
  // A reversed range is empty too.
  EXPECT_EQ(count_bits_in(words.data(), 70, 3), 0u);
}

}  // namespace
}  // namespace coopnet::util
