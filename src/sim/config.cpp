#include "sim/config.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace coopnet::sim {

namespace {

using schema::Field;
using schema::kIsInteger;

/// Throws when a numeric field lies outside its range; `owner` prefixes
/// the message.
template <class T>
void check_range(const char* owner, const Field& f, const T& v) {
  if constexpr (schema::kIsNumber<T>) {
    if (!f.range.contains(static_cast<double>(v))) {
      throw std::invalid_argument(
          std::string(owner) + ": " + f.key + " = " +
          util::shortest(static_cast<double>(v)) + " (expected " +
          f.range.describe(kIsInteger<T> ? std::numeric_limits<T>::max()
                                         : 0) +
          ")");
    }
  }
}

/// Doubles are rendered as their IEEE-754 bit pattern: the fingerprint
/// must mean bit-equality, not printf-rounded equality.
void put_double_field(std::string& out, const char* key, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%016llx\n", key,
                static_cast<unsigned long long>(bits));
  out += buf;
}

}  // namespace

void FaultConfig::validate() const {
  schema::for_each_fault_field(*this, [](const Field& f, const auto& v) {
    check_range("FaultConfig", f, v);
  });
  if (transfer_stall_rate > 0.0 && stall_timeout <= 0.0) {
    throw std::invalid_argument(
        "FaultConfig: stall_timeout <= 0 with stalls enabled");
  }
  if (retry_backoff_cap < retry_backoff) {
    throw std::invalid_argument(
        "FaultConfig: retry_backoff_cap < retry_backoff");
  }
  if ((seeder_uptime > 0.0) != (seeder_downtime > 0.0)) {
    throw std::invalid_argument(
        "FaultConfig: seeder outages need both seeder_uptime and "
        "seeder_downtime > 0");
  }
}

void SwarmConfig::validate() const {
  schema::for_each_field(*this, [](const Field& f, const auto& v) {
    check_range("SwarmConfig", f, v);
  });
  if (free_rider_fraction + strategic_fraction >= 1.0) {
    throw std::invalid_argument(
        "SwarmConfig: free_rider_fraction + strategic_fraction >= 1");
  }
  if (piece_bytes > file_bytes) {
    throw std::invalid_argument("SwarmConfig: piece_bytes > file_bytes");
  }
  faults.validate();
}

std::string canonical_config_string(const SwarmConfig& config) {
  std::string out;
  out.reserve(1024);
  schema::for_each_field(config, [&out](const Field& f, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    const std::string key = f.key;
    if constexpr (std::is_same_v<T, core::Algorithm>) {
      out += key + "=" + core::to_string(v) + "\n";
    } else if constexpr (std::is_same_v<T, core::CapacityDistribution>) {
      out += key + "=" + std::to_string(v.classes().size()) + "\n";
      for (const core::CapacityClass& c : v.classes()) {
        put_double_field(out, "capacity_rate", c.rate);
        put_double_field(out, "capacity_fraction", c.fraction);
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      out += key + (v ? "=1\n" : "=0\n");
    } else if constexpr (std::is_enum_v<T>) {
      out += key + "=" + std::to_string(static_cast<unsigned>(v)) + "\n";
    } else if constexpr (kIsInteger<T>) {
      out += key + "=" + std::to_string(v) + "\n";
    } else {
      put_double_field(out, f.key, v);
    }
  });
  return out;
}

SwarmConfig SwarmConfig::small(core::Algorithm algo, std::uint64_t seed) {
  SwarmConfig c;
  c.algorithm = algo;
  c.n_peers = 60;
  c.file_bytes = 8LL * 1024 * 1024;
  c.piece_bytes = 128LL * 1024;
  c.graph.degree = 15;
  c.seeder_capacity = 2.0 * 1024 * 1024;
  c.flash_crowd_window = 5.0;
  c.max_time = 4000.0;
  // Scaled with the smaller piece/file size (the grace should cover a few
  // slow-peer reciprocal piece uploads, ~5 s here vs ~10 s at paper scale).
  c.tchain_grace = 10.0;
  c.seed = seed;
  return c;
}

SwarmConfig SwarmConfig::paper_scale(core::Algorithm algo,
                                     std::uint64_t seed) {
  SwarmConfig c;
  c.algorithm = algo;
  c.n_peers = 1000;
  c.file_bytes = 128LL * 1024 * 1024;
  c.piece_bytes = 256LL * 1024;
  c.graph.degree = 50;
  c.max_time = 36000.0;
  c.seed = seed;
  return c;
}

}  // namespace coopnet::sim
