// Experiment runner: one call per swarm run, plus the scenario builders
// the paper's evaluation uses (Figures 4-6).
#pragma once

#include <vector>

#include "exp/supervise.h"
#include "metrics/report.h"
#include "sim/config.h"

namespace coopnet::exp {

/// Builds the strategy, swarm, and metrics for `config`, runs to
/// completion, and returns the distilled report.
metrics::RunReport run_scenario(const sim::SwarmConfig& config);

/// The per-algorithm "most effective attack" of Section V-B2: simple
/// free-riding everywhere, plus collusion against T-Chain, whitewashing
/// against FairTorrent, and sybil praise against the reputation algorithm.
sim::AttackConfig targeted_attack(core::Algorithm algo);

/// Applies Figure 5's setup to a base config: `fraction` free-riders
/// mounting the targeted attack; set `large_view` for Figure 6's variant.
sim::SwarmConfig with_freeriders(sim::SwarmConfig config, double fraction,
                                 bool large_view);

/// Runs all six algorithms over the same base scenario (same seed =>
/// same capacities/topology draw per algorithm) through run_cells. The
/// base config's `algorithm` field is overridden per run. `jobs`
/// algorithms run concurrently (1 = sequential, 0 = hardware
/// concurrency); the outcome order and contents are identical for every
/// jobs value.
SweepResult run_all_algorithms(const sim::SwarmConfig& base,
                               std::size_t jobs = 1);

}  // namespace coopnet::exp
