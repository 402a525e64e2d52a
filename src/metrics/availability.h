// Piece-availability measurement: snapshots of the simulated swarm's
// piece-count distribution p_k (the quantity Section IV-A.2's model takes
// as input) and of per-piece replication, sampled over time.
//
// This closes the loop between the simulator and the analytical
// piece-availability results: the measured p_k at any instant can be fed
// straight into core::PieceCountDistribution / the pi_* exchange
// probabilities.
#pragma once

#include <cstdint>
#include <vector>

#include "core/piece_availability.h"
#include "sim/swarm.h"
#include "util/timeseries.h"

namespace coopnet::metrics {

/// One availability snapshot.
struct AvailabilitySnapshot {
  double time = 0.0;
  /// p_k over active leechers: fraction holding exactly k usable pieces,
  /// k = 0..M.
  std::vector<double> piece_count_distribution;
  /// Mean usable piece count over active leechers.
  double mean_pieces = 0.0;
  /// Minimum replication over pieces (counting active leechers + one
  /// seeder-backed copy), i.e. how endangered the rarest piece is.
  std::uint32_t min_replication = 0;
  std::size_t active_leechers = 0;
};

/// Computes the current snapshot. Requires piece_count >= 1.
AvailabilitySnapshot availability_snapshot(const sim::Swarm& swarm);

/// Converts a snapshot's p_k into the analytical model's distribution
/// object (usable with core::pi_tchain and friends). Requires at least one
/// active leecher in the snapshot.
core::PieceCountDistribution to_distribution(
    const AvailabilitySnapshot& snapshot);

/// Periodic sampler: call install() before Swarm::run(); snapshots are
/// collected every `interval` seconds while any leecher is active.
class AvailabilityTracker {
 public:
  explicit AvailabilityTracker(double interval = 10.0);

  void install(sim::Swarm& swarm);

  const std::vector<AvailabilitySnapshot>& snapshots() const {
    return snapshots_;
  }
  /// Mean piece count vs time as a series.
  util::TimeSeries mean_pieces_series() const;

 private:
  void sample(sim::Swarm& swarm);

  double interval_;
  bool installed_ = false;
  /// The sampler's kEvExternalTimer sub-id (Swarm::add_timer).
  std::uint32_t timer_ = 0;
  std::vector<AvailabilitySnapshot> snapshots_;
};

}  // namespace coopnet::metrics
