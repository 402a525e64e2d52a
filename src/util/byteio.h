// Bounds-checked binary serialization buffers for checkpoint sections.
//
// ByteSink appends fixed-width little-endian scalars, and contiguous
// spans of them, to a growable buffer through a memcpy write cursor; a
// writer that knows its size reserves it once. ByteSource reads them back
// with hard bounds checks, one per scalar or per span (a truncated or
// bit-rotted section must fail loudly, never read past the end or
// fabricate state). Doubles round-trip through their IEEE-754 bit
// pattern, so restored simulation state is bit-exact, not
// printf-lossy.
//
// Containers whose order feeds results are saved in their iteration order
// and are order-defined themselves (dense PeerId-indexed arrays, rows
// sorted by id), so a restore reproduces them by construction. Keyed
// lists are written in strictly ascending id order (save_by_id writes
// the non-empty entries of a PeerId-indexed array that way), and loaders
// read the keys back through get_ascending_id, which rejects a
// duplicate, a descent or an out-of-range id.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace coopnet::util {

// Scalars and spans are copied as they lie in memory. That is the
// format's little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "util/byteio.h writes host-order bytes as the little-endian "
              "format; a big-endian port needs byte swaps here");

template <typename T>
concept Scalar = std::is_arithmetic_v<T>;

class ByteSink {
 public:
  /// Makes room for `bytes` more bytes, so the writes that follow never
  /// reallocate. Sections whose size is known up front reserve it exactly.
  void reserve(std::size_t bytes) {
    if (buf_.size() - len_ < bytes) buf_.resize(len_ + bytes);
  }

  void put_u8(std::uint8_t v) { put_scalar(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v) { put_scalar(v); }
  void put_u64(std::uint64_t v) { put_scalar(v); }
  void put_i64(std::int64_t v) { put_scalar(v); }

  /// Bit-exact: the IEEE-754 pattern, not a decimal rendering.
  void put_double(double v) { put_scalar(v); }

  void put_bytes(const void* data, std::size_t size) {
    if (size != 0) std::memcpy(claim(size), data, size);
  }

  /// `count` contiguous scalars, each in the layout its put_* writes.
  template <Scalar T>
  void put_span(const T* data, std::size_t count) {
    put_bytes(data, count * sizeof(T));
  }

  void put_string(const std::string& s) {
    put_u64(s.size());
    put_bytes(s.data(), s.size());
  }

  /// The bytes written so far; the sink is empty afterwards.
  std::string take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }
  std::size_t size() const { return len_; }

 private:
  template <Scalar T>
  void put_scalar(T v) {
    std::memcpy(claim(sizeof(T)), &v, sizeof(T));
  }

  /// The next `n` bytes of the buffer.
  char* claim(std::size_t n) {
    if (buf_.size() - len_ < n) [[unlikely]] grow(n);
    char* out = buf_.data() + len_;
    len_ += n;
    return out;
  }

  /// Geometric growth, for writers that reserved nothing or too little.
  [[gnu::noinline]] void grow(std::size_t n) {
    buf_.resize(std::max({len_ + n, 2 * buf_.size(), std::size_t{64}}));
  }

  std::string buf_;      // [0, len_) written; the rest is spare room
  std::size_t len_ = 0;
};

/// Thrown on truncation, checksum mismatch, or any structural defect in
/// serialized state. Restore paths catch this to reject a snapshot
/// without applying it.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error(what) {}
};

class ByteSource {
 public:
  /// Reads from [data, data+size); the buffer must outlive the source.
  /// `context` names the section in truncation errors.
  ByteSource(const void* data, std::size_t size, std::string context)
      : p_(static_cast<const char*>(data)),
        size_(size),
        context_(std::move(context)) {}

  explicit ByteSource(const std::string& bytes, std::string context = "")
      : ByteSource(bytes.data(), bytes.size(), std::move(context)) {}

  std::uint8_t get_u8() { return get_scalar<std::uint8_t>(); }

  bool get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) {
      throw SerializeError(where() + ": bool byte out of range");
    }
    return v != 0;
  }

  std::uint32_t get_u32() { return get_scalar<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_scalar<std::uint64_t>(); }
  std::int64_t get_i64() { return get_scalar<std::int64_t>(); }
  double get_double() { return get_scalar<double>(); }

  void get_bytes(void* out, std::size_t size) {
    if (size != 0) std::memcpy(out, view(size), size);
  }

  /// Reads `count` contiguous scalars written by put_span, with one
  /// bounds check for the whole span.
  template <Scalar T>
  void get_span(T* out, std::size_t count) {
    if (count != 0) std::memcpy(out, view(count, sizeof(T)), count * sizeof(T));
  }

  /// The next `count` elements of `width` bytes, in place: valid as long
  /// as the buffer is.
  const char* view(std::size_t count, std::size_t width = 1) {
    need(count, width);
    const char* out = p_ + pos_;
    pos_ += count * width;
    return out;
  }

  std::string get_string() {
    const auto size = static_cast<std::size_t>(get_u64());
    return std::string(view(size), size);
  }

  /// A size about to drive a resize/reserve: bounded by the bytes that
  /// remain, so corrupt counts cannot trigger huge allocations.
  std::size_t get_count(std::size_t bytes_per_element = 1) {
    const std::uint64_t n = get_u64();
    if (bytes_per_element != 0 &&
        n > remaining() / bytes_per_element + 1) {
      throw SerializeError(where() + ": element count " + std::to_string(n) +
                           " exceeds the bytes that remain");
    }
    return static_cast<std::size_t>(n);
  }

  /// The next id of a list saved in strictly ascending id order. Throws
  /// unless the id is at least `next_min` (so not a duplicate or a
  /// descent) and below `bound`, then moves `next_min` past it.
  std::uint32_t get_ascending_id(std::uint64_t& next_min,
                                 std::uint64_t bound) {
    const std::uint32_t id = get_u32();
    if (id < next_min || id >= bound) {
      throw SerializeError(where() + ": id " + std::to_string(id) +
                           " is not strictly ascending or not below " +
                           std::to_string(bound));
    }
    next_min = std::uint64_t{id} + 1;
    return id;
  }

  /// A u32 id that must be below `bound` (a peer id against the
  /// population, a piece id against the piece count).
  std::uint32_t get_id(std::uint64_t bound) {
    const std::uint32_t id = get_u32();
    if (id >= bound) throw_id_out_of_range(id, bound);
    return id;
  }
  /// get_id for a field that may also hold the all-ones "none" value
  /// (sim::kNoPeer, sim::kNoPiece).
  std::uint32_t get_id_or_none(std::uint64_t bound) {
    const std::uint32_t id = get_u32();
    if (id >= bound && id != kNoId) throw_id_out_of_range(id, bound);
    return id;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  /// Restore paths call this after the last field: trailing bytes mean
  /// the layout drifted, and silently ignoring them would hide it.
  void expect_exhausted() const {
    if (!exhausted()) {
      throw SerializeError(where() + ": " + std::to_string(remaining()) +
                           " unread trailing byte(s)");
    }
  }

 private:
  template <Scalar T>
  T get_scalar() {
    T v;
    std::memcpy(&v, view(sizeof(T)), sizeof(T));
    return v;
  }

  void need(std::size_t count, std::size_t width = 1) const {
    if ((size_ - pos_) / width < count) {
      throw SerializeError(
          where() + ": truncated (need " + std::to_string(count) +
          (width == 1 ? "" : " x " + std::to_string(width)) +
          " byte(s) at offset " + std::to_string(pos_) + " of " +
          std::to_string(size_) + ")");
    }
  }

  std::string where() const {
    return context_.empty() ? std::string("serialized data") : context_;
  }

  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

  [[noreturn]] void throw_id_out_of_range(std::uint32_t id,
                                          std::uint64_t bound) const {
    throw SerializeError(where() + ": id " + std::to_string(id) +
                         " is not below " + std::to_string(bound));
  }

  const char* p_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Writes the entries of a PeerId-indexed array for which `keep(entry)`
/// holds: their count, then each one's id and `save(sink, entry)`, in
/// ascending id order.
template <typename T, typename Keep, typename Save>
void save_by_id(ByteSink& sink, const std::vector<T>& by_id, Keep&& keep,
                Save&& save) {
  std::uint64_t kept = 0;
  for (const T& entry : by_id) kept += keep(entry) ? 1 : 0;
  sink.put_u64(kept);
  for (std::size_t id = 0; id < by_id.size(); ++id) {
    if (!keep(by_id[id])) continue;
    sink.put_u32(static_cast<std::uint32_t>(id));
    save(sink, by_id[id]);
  }
}

/// Reads what save_by_id wrote into `by_id`, which is already sized to
/// the population: `load(src, entry)` fills each saved entry. Throws
/// SerializeError on an id that is not strictly ascending or not below
/// by_id.size(). `min_entry_bytes` is the least `save` writes.
template <typename T, typename Load>
void load_by_id(ByteSource& src, std::vector<T>& by_id,
                std::size_t min_entry_bytes, Load&& load) {
  const std::size_t count = src.get_count(4 + min_entry_bytes);
  std::uint64_t next_min = 0;
  for (std::size_t i = 0; i < count; ++i) {
    load(src, by_id[src.get_ascending_id(next_min, by_id.size())]);
  }
}

}  // namespace coopnet::util
