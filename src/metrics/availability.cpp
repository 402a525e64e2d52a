#include "metrics/availability.h"

#include <limits>
#include <stdexcept>

#include "sim/event_kinds.h"

namespace coopnet::metrics {

AvailabilitySnapshot availability_snapshot(const sim::Swarm& swarm) {
  const auto pieces = swarm.config().piece_count();
  if (pieces < 1) {
    throw std::invalid_argument("availability_snapshot: no pieces");
  }
  AvailabilitySnapshot snap;
  snap.time = swarm.engine().now();
  snap.piece_count_distribution.assign(pieces + 1, 0.0);

  std::vector<std::uint32_t> replication(pieces, 1);  // seeder-backed copy
  // O(active): every accumulation here is an exact integer sum, so the
  // active registry's arbitrary iteration order cannot change the result.
  std::uint64_t total_pieces = 0;
  for (const sim::PeerId id : swarm.active_ids()) {
    sim::ConstPeer p = swarm.peer(id);
    if (p.is_seeder()) continue;
    ++snap.active_leechers;
    const auto count = p.pieces().count();
    snap.piece_count_distribution[count] += 1.0;
    total_pieces += count;
    p.pieces().for_each([&](sim::PieceId q) { ++replication[q]; });
  }
  if (snap.active_leechers > 0) {
    for (double& v : snap.piece_count_distribution) {
      v /= static_cast<double>(snap.active_leechers);
    }
    snap.mean_pieces = static_cast<double>(total_pieces) /
                       static_cast<double>(snap.active_leechers);
  }
  snap.min_replication = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t r : replication) {
    snap.min_replication = std::min(snap.min_replication, r);
  }
  return snap;
}

core::PieceCountDistribution to_distribution(
    const AvailabilitySnapshot& snapshot) {
  if (snapshot.active_leechers == 0) {
    throw std::invalid_argument("to_distribution: empty snapshot");
  }
  return core::PieceCountDistribution(
      snapshot.piece_count_distribution,
      static_cast<std::int64_t>(snapshot.piece_count_distribution.size()) -
          1);
}

AvailabilityTracker::AvailabilityTracker(double interval)
    : interval_(interval) {
  if (interval <= 0.0) {
    throw std::invalid_argument("AvailabilityTracker: interval <= 0");
  }
}

void AvailabilityTracker::install(sim::Swarm& swarm) {
  if (installed_) {
    throw std::logic_error("AvailabilityTracker: already installed");
  }
  installed_ = true;
  timer_ = swarm.add_timer([this, &swarm] { sample(swarm); });
  swarm.engine().schedule(interval_,
                          sim::make_timer_tag(sim::kEvExternalTimer, timer_));
}

void AvailabilityTracker::sample(sim::Swarm& swarm) {
  auto snap = availability_snapshot(swarm);
  if (snap.active_leechers > 0) snapshots_.push_back(std::move(snap));
  if (swarm.engine().now() + interval_ <= swarm.config().max_time) {
    swarm.engine().schedule(interval_,
                            sim::make_timer_tag(sim::kEvExternalTimer, timer_));
  }
}

util::TimeSeries AvailabilityTracker::mean_pieces_series() const {
  util::TimeSeries series("mean_pieces");
  for (const auto& snap : snapshots_) {
    series.add(snap.time, snap.mean_pieces);
  }
  return series;
}

}  // namespace coopnet::metrics
