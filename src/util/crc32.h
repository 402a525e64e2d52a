// CRC-32 (IEEE 802.3 / zlib polynomial), table-driven (slicing-by-8).
//
// Shared integrity framing for the run journal's per-record checksums and
// the checkpoint file's per-section checksums: one implementation, one
// polynomial, so a record rendered on a fleet worker verifies on the
// coordinator and a snapshot written by one process verifies in another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace coopnet::util {

/// CRC-32 of `size` bytes at `data`. `seed` chains incremental updates:
/// crc32(ab) == crc32(b, crc32(a)). The empty input hashes to 0.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::string& bytes,
                           std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace coopnet::util
