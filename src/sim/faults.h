// Fault-injection & churn model for the swarm simulator.
//
// The paper's Section V evaluation assumes an ideal transport: every
// transfer completes, every peer stays until it finishes, and the seeder
// never blinks. FaultConfig makes each of those assumptions a knob so the
// incentive mechanisms can be stressed the way deployed swarms stress them
// (Nielson et al., "Building Better Incentives for Robustness in
// BitTorrent"): lossy/stalling transfers with capped-exponential-backoff
// retries, abrupt leecher churn with optional rejoin, and windowed seeder
// outages.
//
// All faults draw from the swarm's single deterministic util::Rng, so a
// (seed, FaultConfig) pair fully reproduces a run. A default-constructed
// FaultConfig disables every fault and draws nothing from the Rng: the
// simulation is bit-for-bit identical to the fault-free simulator.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace coopnet::sim {

/// Fault & churn knobs for one swarm run. Defaults disable everything.
struct FaultConfig {
  // --- transfer faults --------------------------------------------------
  /// Probability that a started transfer aborts partway through (the
  /// failure point is uniform over the transfer's duration).
  double transfer_loss_rate = 0.0;
  /// Probability that a started transfer stalls: no progress until the
  /// swarm gives up on it at `stall_timeout`.
  double transfer_stall_rate = 0.0;
  /// How long a stalled transfer ties up its slot before the swarm aborts
  /// it. Should exceed a typical piece-transfer duration.
  Seconds stall_timeout = 60.0;
  /// Retry attempts per failed transfer before the swarm abandons it
  /// (0 = never retry). Retries re-check every start precondition, so a
  /// piece obtained elsewhere in the meantime cancels the retry.
  int max_retries = 3;
  /// First retry backoff; attempt k waits
  /// min(retry_backoff * retry_backoff_factor^k, retry_backoff_cap).
  Seconds retry_backoff = 0.5;
  double retry_backoff_factor = 2.0;
  Seconds retry_backoff_cap = 8.0;

  // --- leecher churn ----------------------------------------------------
  /// Abrupt mid-download departure rate per active leecher (events/second;
  /// session lifetimes are exponential with mean 1/churn_rate). 0 = off.
  double churn_rate = 0.0;
  /// Probability a churned leecher rejoins after its downtime. Peers that
  /// do not rejoin are gone for good (their pieces leave the swarm).
  double rejoin_probability = 1.0;
  /// Mean downtime before a rejoin (exponential; 0 = immediate rejoin).
  Seconds mean_downtime = 30.0;

  // --- seeder outages ---------------------------------------------------
  /// Windowed seeder downtime: after every `seeder_uptime` seconds of
  /// service, every seeder goes dark for `seeder_downtime` seconds.
  /// Both must be > 0 to enable outages.
  Seconds seeder_uptime = 0.0;
  Seconds seeder_downtime = 0.0;

  bool transfer_faults_enabled() const {
    return transfer_loss_rate > 0.0 || transfer_stall_rate > 0.0;
  }
  bool churn_enabled() const { return churn_rate > 0.0; }
  bool seeder_outages_enabled() const {
    return seeder_uptime > 0.0 && seeder_downtime > 0.0;
  }
  bool any_enabled() const {
    return transfer_faults_enabled() || churn_enabled() ||
           seeder_outages_enabled();
  }

  /// Backoff before retry attempt `attempt` (0-based).
  Seconds backoff_for(int attempt) const;

  /// Throws std::invalid_argument on out-of-range or non-finite knobs.
  /// Defined next to the config schema (config.cpp), whose rows give the
  /// ranges.
  void validate() const;
};

/// Counters the Swarm accumulates while faults are active. The byte
/// counters are always maintained (they cost nothing and make the
/// goodput/offered ratio meaningful even in fault-free runs).
struct FaultStats {
  // Transfer-level faults.
  std::uint64_t transfer_failures = 0;  // loss aborts
  std::uint64_t transfer_stalls = 0;    // stall-timeout aborts
  std::uint64_t uploader_vanished = 0;  // uploader churned mid-transfer
  std::uint64_t retries_scheduled = 0;  // backoff retries queued
  std::uint64_t retry_successes = 0;    // retried transfers that delivered
  std::uint64_t transfers_abandoned = 0;  // gave up with the piece unserved
  std::uint64_t retries_dropped = 0;    // retry became moot (piece obtained
                                        // elsewhere or an endpoint churned)
  // Churn.
  std::uint64_t churn_departures = 0;  // abrupt mid-download exits
  std::uint64_t churn_rejoins = 0;
  std::uint64_t churn_losses = 0;  // departures that never rejoin
  std::uint64_t seeder_outages = 0;

  // Goodput accounting: bytes committed to started transfers vs bytes
  // that arrived as payload at a live receiver.
  Bytes offered_bytes = 0;
  Bytes goodput_bytes = 0;

  /// Delivered fraction of offered payload bytes (1 when nothing was
  /// offered; 1 in any fault-free run).
  double goodput_ratio() const {
    return offered_bytes <= 0
               ? 1.0
               : static_cast<double>(goodput_bytes) /
                     static_cast<double>(offered_bytes);
  }
};

/// Named fault levels for sweeps (bench/fig_churn_sweep).
FaultConfig lossy_faults(double loss_rate);
FaultConfig moderate_churn();
FaultConfig heavy_churn();

}  // namespace coopnet::sim
