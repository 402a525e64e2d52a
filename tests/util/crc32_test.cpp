// util::crc32 is the shared integrity primitive under the run journal's
// per-record checksums and the checkpoint container's per-section
// checksums, so its exact bit-for-bit behaviour (polynomial, reflection,
// seeding convention) is load-bearing: a drifted implementation would
// invalidate every journal and snapshot already on disk.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace coopnet::util {
namespace {

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check vector: crc32("123456789").
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputHashesToZero) {
  EXPECT_EQ(crc32(std::string()), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SeedChainsIncrementalUpdates) {
  const std::string whole = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::string a = whole.substr(0, split);
    const std::string b = whole.substr(split);
    EXPECT_EQ(crc32(b, crc32(a)), crc32(whole))
        << "chaining broke at split " << split;
  }
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  const std::string base = "journal record integrity canary";
  const std::uint32_t reference = crc32(base);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = base;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(crc32(flipped), reference)
          << "missed flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32, DistinguishesPermutationsAndLengths) {
  EXPECT_NE(crc32(std::string("ab")), crc32(std::string("ba")));
  EXPECT_NE(crc32(std::string("ab")), crc32(std::string("ab\0", 3)));
}

/// The definition, one bit at a time: reflected polynomial 0xEDB88320,
/// register preset and final value inverted, `seed` taken as a previous
/// result.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t size,
                                        std::mt19937_64& rng) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32, MatchesTheBitwiseDefinitionAtEveryLengthAndAlignment) {
  // Lengths 0-4100 cover every tail after the eight-byte steps, and
  // offsets 0-7 every start alignment of those steps.
  std::mt19937_64 rng(2016);
  const std::vector<unsigned char> bytes = random_bytes(4100 + 7, rng);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 4100; ++size) {
      const auto seed = static_cast<std::uint32_t>(rng());
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(crc32(p, size, seed), bitwise_crc32(p, size, seed))
          << "offset " << offset << ", length " << size << ", seed "
          << seed;
    }
  }
}

TEST(Crc32, ChainsAtEverySplitPoint) {
  std::mt19937_64 rng(415);
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{8},
                                 std::size_t{9}, std::size_t{63},
                                 std::size_t{1000}, std::size_t{4100}}) {
    const std::vector<unsigned char> bytes = random_bytes(size, rng);
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::uint32_t whole = bitwise_crc32(bytes.data(), size, seed);
    for (std::size_t split = 0; split <= size; ++split) {
      const std::uint32_t head = crc32(bytes.data(), split, seed);
      ASSERT_EQ(crc32(bytes.data() + split, size - split, head), whole)
          << "length " << size << ", split " << split;
    }
  }
}

}  // namespace
}  // namespace coopnet::util
