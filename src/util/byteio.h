// Bounds-checked binary serialization buffers for checkpoint sections.
//
// ByteSink appends fixed-width little-endian scalars to a growable
// buffer; ByteSource reads them back with hard bounds checks (a
// truncated or bit-rotted section must fail loudly, never read past the
// end or fabricate state). Doubles round-trip through their IEEE-754 bit
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

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace coopnet::util {

class ByteSink {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_u32(std::uint32_t v) {
    char raw[4];
    for (int i = 0; i < 4; ++i) raw[i] = static_cast<char>(v >> (8 * i));
    buf_.append(raw, 4);
  }

  void put_u64(std::uint64_t v) {
    char raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>(v >> (8 * i));
    buf_.append(raw, 8);
  }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  /// Bit-exact: the IEEE-754 pattern, not a decimal rendering.
  void put_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bytes(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  void put_string(const std::string& s) {
    put_u64(s.size());
    buf_.append(s);
  }

  const std::string& str() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
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

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[pos_++]);
  }

  bool get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) {
      throw SerializeError(where() + ": bool byte out of range");
    }
    return v != 0;
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(p_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(p_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  double get_double() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void get_bytes(void* out, std::size_t size) {
    need(size);
    std::memcpy(out, p_ + pos_, size);
    pos_ += size;
  }

  std::string get_string() {
    const std::uint64_t n = get_u64();
    need(n);
    std::string s(p_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
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
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw SerializeError(where() + ": truncated (need " +
                           std::to_string(n) + " byte(s) at offset " +
                           std::to_string(pos_) + " of " +
                           std::to_string(size_) + ")");
    }
  }

  std::string where() const {
    return context_.empty() ? std::string("serialized data") : context_;
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
