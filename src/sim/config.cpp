#include "sim/config.h"

#include <cmath>
#include <stdexcept>

namespace coopnet::sim {

void SwarmConfig::validate() const {
  if (n_peers < 2) throw std::invalid_argument("SwarmConfig: n_peers < 2");
  if (free_rider_fraction < 0.0 || free_rider_fraction >= 1.0) {
    throw std::invalid_argument("SwarmConfig: free_rider_fraction range");
  }
  if (strategic_fraction < 0.0 ||
      free_rider_fraction + strategic_fraction >= 1.0) {
    throw std::invalid_argument("SwarmConfig: strategic_fraction range");
  }
  if (file_bytes <= 0 || piece_bytes <= 0 || piece_bytes > file_bytes) {
    throw std::invalid_argument("SwarmConfig: bad file/piece sizes");
  }
  if (seeder_capacity <= 0.0) {
    throw std::invalid_argument("SwarmConfig: seeder_capacity <= 0");
  }
  if (seeder_count < 1) {
    throw std::invalid_argument("SwarmConfig: seeder_count < 1");
  }
  if (arrival_rate <= 0.0) {
    throw std::invalid_argument("SwarmConfig: arrival_rate <= 0");
  }
  if (max_incoming < 0) {
    throw std::invalid_argument("SwarmConfig: max_incoming < 0");
  }
  if (upload_slots < 1 || seeder_slots < 1) {
    throw std::invalid_argument("SwarmConfig: slot counts must be >= 1");
  }
  if (n_bt < 1 || n_bt >= upload_slots + 1) {
    // BitTorrent uses n_bt reciprocation slots plus one optimistic slot out
    // of upload_slots total.
    if (n_bt < 1) throw std::invalid_argument("SwarmConfig: n_bt < 1");
  }
  if (rechoke_interval <= 0.0 || retry_interval <= 0.0) {
    throw std::invalid_argument("SwarmConfig: intervals must be positive");
  }
  if (optimistic_rounds < 1) {
    throw std::invalid_argument("SwarmConfig: optimistic_rounds < 1");
  }
  if (alpha_r < 0.0 || alpha_r > 1.0) {
    throw std::invalid_argument("SwarmConfig: alpha_r outside [0, 1]");
  }
  if (tchain_grace <= 0.0) {
    throw std::invalid_argument("SwarmConfig: tchain_grace <= 0");
  }
  if (tchain_backlog < 0) {
    throw std::invalid_argument("SwarmConfig: tchain_backlog < 0");
  }
  if (flash_crowd_window < 0.0 || max_time <= 0.0) {
    throw std::invalid_argument("SwarmConfig: bad time bounds");
  }
  if (linger_time < 0.0) {
    throw std::invalid_argument("SwarmConfig: linger_time < 0");
  }
  // Attack timing knobs: both intervals schedule recurring event-loop
  // timers, so a non-positive (or non-finite) period with the attack
  // enabled would spin or wedge the run. Fail fast instead.
  if (!std::isfinite(attack.whitewash_interval) ||
      !std::isfinite(attack.sybil_interval) ||
      !std::isfinite(attack.sybil_rate)) {
    throw std::invalid_argument("SwarmConfig: non-finite attack knobs");
  }
  if (attack.whitewashing && attack.whitewash_interval <= 0.0) {
    throw std::invalid_argument(
        "SwarmConfig: whitewashing enabled with whitewash_interval <= 0");
  }
  if (attack.sybil_praise && attack.sybil_interval <= 0.0) {
    throw std::invalid_argument(
        "SwarmConfig: sybil_praise enabled with sybil_interval <= 0");
  }
  if (attack.whitewash_interval <= 0.0 || attack.sybil_interval <= 0.0 ||
      attack.sybil_rate < 0.0) {
    throw std::invalid_argument("SwarmConfig: bad attack timings");
  }
  faults.validate();
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
