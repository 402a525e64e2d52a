// Replicated runs: the same scenario across R seeds, with per-metric
// mean / stddev / 95% confidence intervals. The figure benches accept
// --reps to report these instead of single-seed values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/supervise.h"
#include "metrics/report.h"
#include "sim/config.h"

namespace coopnet::exp {

/// Mean with spread over replications of one scalar metric.
struct MetricEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  /// Two-sided 95% CI half width. Uses the Student-t critical value for
  /// small samples (n < 30) -- honest at `--reps 5` -- and the normal
  /// approximation 1.96 for n >= 30 (util::t_critical_975).
  double ci95_half_width = 0.0;
  std::size_t samples = 0;

  double lo() const { return mean - ci95_half_width; }
  double hi() const { return mean + ci95_half_width; }
  /// "m +/- h" rendering for tables.
  std::string to_string(int precision = 4) const;
};

/// Aggregated view of R runs of the same scenario. The estimates cover
/// the replications that produced reports.
struct ReplicatedReport {
  core::Algorithm algorithm = core::Algorithm::kBitTorrent;
  std::size_t replications = 0;
  MetricEstimate mean_completion;     // over runs with >= 1 completion
  MetricEstimate median_completion;
  MetricEstimate completed_fraction;
  MetricEstimate median_bootstrap;
  MetricEstimate settled_fairness;
  MetricEstimate fairness_F;
  MetricEstimate susceptibility;
  /// The reports of the ok replications, in seed order. Journal-resumed
  /// cells contribute their scalar-only stub reports, whose %.17g scalars
  /// keep resumed aggregates bit-identical to an uninterrupted run.
  std::vector<metrics::RunReport> runs;
  /// One outcome per replication, in seed order.
  SweepResult sweep;
};

/// Estimates a metric from scalar samples (skipping NaN-like negatives is
/// the caller's job). Requires at least one sample.
MetricEstimate estimate(const std::vector<double>& samples);

/// The R replication cells of `config`: seeds cell_seed(seed0, r).
std::vector<sim::SwarmConfig> replication_cells(const sim::SwarmConfig& config,
                                                std::size_t replications,
                                                std::uint64_t seed0);

/// Runs `config` under the per-replication seeds cell_seed(seed0, r),
/// r = 0..replications-1 (see exp/schedule.h), and aggregates. Requires
/// replications >= 1. `jobs` cells run concurrently (1 = sequential on the
/// calling thread, 0 = hardware concurrency); results are bit-identical
/// across jobs values. Failed or timed-out replications are quarantined
/// into `sweep` instead of aborting the rest, and outcomes are
/// journaled/resumed when `journal`/`resume` are given (see
/// exp/supervise.h).
ReplicatedReport run_replicated(const sim::SwarmConfig& config,
                                std::size_t replications,
                                std::uint64_t seed0 = 1,
                                std::size_t jobs = 1,
                                const Supervision& supervision = {},
                                RunJournal* journal = nullptr,
                                const JournalIndex* resume = nullptr,
                                const CheckpointPolicy& checkpoint = {});

}  // namespace coopnet::exp
