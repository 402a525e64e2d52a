// util::ByteSink / util::ByteSource are the bounds-checked layer under
// every checkpoint section. Their byte layout is part of the v3 snapshot
// format, so the round trips below also pin it (fixed-width
// little-endian scalars, IEEE-754 bit patterns, u64-length strings), and
// every malformed input must surface as a SerializeError, never as a read
// past the end or an oversized allocation.
#include "util/byteio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/peer_store.h"
#include "sim/piece_set.h"

namespace coopnet {
namespace {

using util::ByteSink;
using util::ByteSource;
using util::SerializeError;

TEST(ByteIo, ScalarsRoundTripInLittleEndianLayout) {
  ByteSink sink;
  sink.put_u8(0xAB);
  sink.put_bool(true);
  sink.put_bool(false);
  sink.put_u32(0x04030201u);
  sink.put_u64(0x0807060504030201ull);
  sink.put_i64(-2);
  sink.put_double(-0.0);
  sink.put_double(std::numeric_limits<double>::infinity());
  sink.put_double(0.1);
  const std::string bytes = sink.take();
  ASSERT_EQ(bytes.size(), 1u + 1 + 1 + 4 + 8 + 8 + 3 * 8);
  EXPECT_EQ(bytes.substr(3, 4), std::string("\x01\x02\x03\x04", 4));
  EXPECT_EQ(bytes.substr(7, 8), std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
  EXPECT_EQ(bytes.substr(15, 8), "\xFE" + std::string(7, '\xFF'));
  EXPECT_EQ(bytes.substr(23, 8), std::string("\0\0\0\0\0\0\0\x80", 8));

  ByteSource src(bytes, "scalars");
  EXPECT_EQ(src.get_u8(), 0xAB);
  EXPECT_TRUE(src.get_bool());
  EXPECT_FALSE(src.get_bool());
  EXPECT_EQ(src.get_u32(), 0x04030201u);
  EXPECT_EQ(src.get_u64(), 0x0807060504030201ull);
  EXPECT_EQ(src.get_i64(), -2);
  const double neg_zero = src.get_double();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(src.get_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(src.get_double(), 0.1);
  EXPECT_NO_THROW(src.expect_exhausted());
}

TEST(ByteIo, BytesAndStringsRoundTrip) {
  ByteSink sink;
  sink.put_bytes("raw", 3);
  sink.put_bytes(nullptr, 0);
  sink.put_string(std::string("a\0b", 3));
  sink.put_string("");
  const std::string bytes = sink.take();
  EXPECT_TRUE(sink.take().empty()) << "take() must leave the sink empty";

  ByteSource src(bytes, "strings");
  char raw[3];
  src.get_bytes(raw, 3);
  EXPECT_EQ(std::string(raw, 3), "raw");
  EXPECT_EQ(src.get_string(), std::string("a\0b", 3));
  EXPECT_EQ(src.get_string(), "");
  EXPECT_TRUE(src.exhausted());
}

TEST(ByteIo, SpansWriteTheSameBytesAsTheirScalars) {
  const std::vector<std::uint32_t> u32s = {0, 1, 0xDEADBEEFu, 7};
  const std::vector<std::uint64_t> u64s = {~0ull, 42, 1ull << 63};
  const std::vector<std::int64_t> i64s = {-1, 0, 5};
  const std::vector<double> doubles = {1.5, -0.0, 1e-300};

  ByteSink spans;
  spans.put_span(u32s.data(), u32s.size());
  spans.put_span(u64s.data(), u64s.size());
  spans.put_span(i64s.data(), i64s.size());
  spans.put_span(doubles.data(), doubles.size());
  spans.put_span(u32s.data(), 0);

  ByteSink scalars;
  for (const std::uint32_t v : u32s) scalars.put_u32(v);
  for (const std::uint64_t v : u64s) scalars.put_u64(v);
  for (const std::int64_t v : i64s) scalars.put_i64(v);
  for (const double v : doubles) scalars.put_double(v);
  const std::string bytes = spans.take();
  EXPECT_EQ(bytes, scalars.take());

  ByteSource src(bytes, "spans");
  std::vector<std::uint32_t> u32_back(u32s.size());
  std::vector<std::uint64_t> u64_back(u64s.size());
  std::vector<std::int64_t> i64_back(i64s.size());
  std::vector<double> double_back(doubles.size());
  src.get_span(u32_back.data(), u32_back.size());
  src.get_span(u64_back.data(), u64_back.size());
  src.get_span(i64_back.data(), i64_back.size());
  src.get_span(double_back.data(), double_back.size());
  src.get_span(u32_back.data(), 0);
  EXPECT_EQ(u32_back, u32s);
  EXPECT_EQ(u64_back, u64s);
  EXPECT_EQ(i64_back, i64s);
  EXPECT_TRUE(std::signbit(double_back[1]));
  EXPECT_EQ(double_back, doubles);
  EXPECT_TRUE(src.exhausted());
}

TEST(ByteIo, ReserveChangesNoByte) {
  // An exact reserve, an undersized one and none at all write the same
  // bytes; growth past a reserve keeps what was written.
  auto write = [](std::size_t reserve) {
    ByteSink sink;
    sink.reserve(reserve);
    for (std::uint32_t i = 0; i < 1000; ++i) {
      sink.put_u32(i);
      sink.put_double(i * 0.5);
    }
    return sink.take();
  };
  const std::string unreserved = write(0);
  EXPECT_EQ(unreserved.size(), 1000u * 12);
  EXPECT_EQ(write(1000 * 12), unreserved);
  EXPECT_EQ(write(7), unreserved);
}

/// Writes one of every field kind; `read` reads them back in order.
std::string every_field() {
  ByteSink sink;
  sink.put_u8(1);
  sink.put_bool(true);
  sink.put_u32(2);
  sink.put_u64(3);
  sink.put_i64(-4);
  sink.put_double(5.5);
  sink.put_string("six");
  const std::uint64_t span[2] = {7, 8};
  sink.put_span(span, 2);
  sink.put_bytes("9", 1);
  return sink.take();
}

void read_every_field(ByteSource& src) {
  src.get_u8();
  src.get_bool();
  src.get_u32();
  src.get_u64();
  src.get_i64();
  src.get_double();
  src.get_string();
  std::uint64_t span[2];
  src.get_span(span, 2);
  char byte;
  src.get_bytes(&byte, 1);
}

TEST(ByteIo, TruncationAtEveryLengthThrows) {
  const std::string bytes = every_field();
  {
    ByteSource whole(bytes, "whole");
    EXPECT_NO_THROW(read_every_field(whole));
    EXPECT_TRUE(whole.exhausted());
  }
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    ByteSource src(bytes.data(), length, "prefix");
    EXPECT_THROW(read_every_field(src), SerializeError)
        << "a " << length << "-byte prefix of " << bytes.size()
        << " was read whole";
  }
}

TEST(ByteIo, TrailingBytesAndOutOfRangeBoolsThrow) {
  ByteSink sink;
  sink.put_u8(2);
  const std::string bytes = sink.take();
  ByteSource trailing(bytes, "trailing");
  EXPECT_THROW(trailing.expect_exhausted(), SerializeError);
  ByteSource as_bool(bytes, "bool");
  EXPECT_THROW(as_bool.get_bool(), SerializeError);
}

TEST(ByteIo, GetCountRefusesCountsTheRemainingBytesCannotHold) {
  // Eight elements of 4 bytes follow the count: 8 (and, as the bound
  // allows one spare, 9) pass; 10 and a huge count do not.
  for (const std::uint64_t count :
       {std::uint64_t{8}, std::uint64_t{9}, std::uint64_t{10},
        std::numeric_limits<std::uint64_t>::max()}) {
    ByteSink sink;
    sink.put_u64(count);
    sink.put_bytes(std::string(32, '\0').data(), 32);
    const std::string bytes = sink.take();
    ByteSource src(bytes, "count");
    if (count <= 9) {
      EXPECT_EQ(src.get_count(4), count);
    } else {
      EXPECT_THROW(src.get_count(4), SerializeError) << count;
    }
  }
  ByteSink sink;
  sink.put_u64(2);
  const std::string bytes = sink.take();
  ByteSource src(bytes, "count");
  EXPECT_THROW(src.get_count(16), SerializeError);
}

TEST(ByteIo, GetAscendingIdRejectsDuplicatesDescentsAndOutOfRange) {
  auto read_ids = [](const std::vector<std::uint32_t>& ids,
                     std::uint64_t bound) {
    ByteSink sink;
    sink.put_span(ids.data(), ids.size());
    const std::string bytes = sink.take();
    ByteSource src(bytes, "ids");
    std::uint64_t next_min = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      src.get_ascending_id(next_min, bound);
    }
  };
  EXPECT_NO_THROW(read_ids({0, 3, 9}, 10));
  EXPECT_THROW(read_ids({0, 3, 3}, 10), SerializeError);
  EXPECT_THROW(read_ids({0, 4, 3}, 10), SerializeError);
  EXPECT_THROW(read_ids({0, 3, 10}, 10), SerializeError);
}

// --- piece-set words -----------------------------------------------------

TEST(ByteIo, PieceSetWordsLoadOnlyBitsBelowTheSize) {
  // Every bit of every word, for sizes at and around word boundaries: a
  // bit below size() loads and counts, exactly as PieceSet::add accepts
  // it; a bit at or above size() is rejected and leaves the set empty.
  for (const sim::PieceId size : {1u, 63u, 64u, 65u, 70u, 128u, 130u}) {
    sim::PieceSet set(size);
    const std::size_t words = set.word_count();
    for (std::size_t bit = 0; bit < words * 64; ++bit) {
      std::vector<std::uint64_t> raw(words, 0);
      raw[bit / 64] = std::uint64_t{1} << (bit % 64);
      if (bit > 0) raw[0] |= 1;  // a second, valid bit to be dropped
      const bool loaded = set.assign_words(raw.data());
      EXPECT_EQ(loaded, bit < size) << "size " << size << ", bit " << bit;
      if (loaded) {
        sim::PieceSet added(size);
        added.add(static_cast<sim::PieceId>(bit));
        if (bit > 0) added.add(0);
        EXPECT_EQ(set.count(), added.count());
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(set.word(w), added.word(w));
        }
      } else {
        EXPECT_TRUE(set.empty());
      }
    }
  }
}

TEST(ByteIo, PeerStoreRejectsAPieceBitAtOrAboveTheSize) {
  // 70 pieces: two words per set, bits 70-127 of the second word are
  // outside the set.
  constexpr sim::PieceId kPieces = 70;
  sim::PeerStore store;
  store.init(2, kPieces);
  store.pieces(0).add(3);
  store.pieces(0).add(69);
  ByteSink sink;
  store.checkpoint_save(sink);
  const std::string bytes = sink.take();

  // The pieces column, peer 0 first, follows the section header (count,
  // piece space) and the state, slot, incoming and epoch columns (1 + 3 * 4
  // bytes per peer).
  constexpr std::size_t kSecondWord = (8 + 4) + 2 * (1 + 3 * 4) + 8;
  ASSERT_EQ(static_cast<unsigned char>(bytes[kSecondWord]), 1u << 5)
      << "piece 69 is bit 5 of the second word";
  {
    sim::PeerStore loaded;
    loaded.init(2, kPieces);
    ByteSource src(bytes, "peers section");
    loaded.checkpoint_load(src);
    EXPECT_EQ(loaded.pieces(0).count(), 2u);
    EXPECT_TRUE(loaded.pieces(0).has(69));
  }
  std::string bad = bytes;
  bad[kSecondWord] = static_cast<char>(bad[kSecondWord] | (1 << 6));
  sim::PeerStore loaded;
  loaded.init(2, kPieces);
  ByteSource src(bad, "peers section");
  EXPECT_THROW(loaded.checkpoint_load(src), SerializeError);
}

}  // namespace
}  // namespace coopnet
