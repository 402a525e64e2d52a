// Per-run measurement: an observer plus periodic samplers that together
// collect everything Figures 4-6 plot.
//
// Metrics follow Section V's conventions: completion, bootstrap, and
// fairness are reported over *compliant* peers only ("performance results
// for compliant users"), while susceptibility is the fraction of all
// uploaded bytes that ended up usable by free-riders.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/swarm.h"
#include "util/timeseries.h"

namespace coopnet::util {
class ByteSink;
class ByteSource;
}  // namespace coopnet::util

namespace coopnet::metrics {

/// Collects per-run series and samples. Install on a Swarm before run().
class RunMetrics : public sim::SwarmObserver {
 public:
  /// `sample_interval`: spacing of the fairness/susceptibility samplers.
  explicit RunMetrics(double sample_interval = 10.0);

  /// Registers as the swarm's observer and schedules the periodic
  /// samplers. Call exactly once, before Swarm::run() (or start()).
  void install(sim::Swarm& swarm);

  /// The post-restore counterpart of install(): registers the observer,
  /// counts the populations, and registers the sampler timer -- but
  /// schedules nothing (the restored queue carries the sampler's next
  /// firing). Call between Swarm::start_restored() and
  /// SwarmCheckpoint::restore.
  void install_restored(sim::Swarm& swarm);

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  /// Serializes the accumulated results (completion/bootstrap vectors and
  /// both sample series) bit-exactly; populations and cadence are
  /// re-derived by install_restored/the constructor.
  void checkpoint_save(util::ByteSink& sink) const;
  void checkpoint_load(util::ByteSource& src);

  // SwarmObserver:
  void on_bootstrap(const sim::Swarm& swarm, sim::ConstPeer peer) override;
  void on_finish(const sim::Swarm& swarm, sim::ConstPeer peer) override;

  // --- results (valid after the run) -------------------------------------
  /// Download completion times of compliant peers, arrival-to-finish.
  const std::vector<double>& completion_times() const { return completion_; }
  /// Bootstrap times of compliant peers (arrival to first usable piece).
  const std::vector<double>& bootstrap_times() const { return bootstrap_; }
  /// Section V fairness statistic (mean u_i/d_i over compliant peers with
  /// downloads), sampled over time.
  const util::TimeSeries& fairness_series() const { return fairness_; }
  /// Fraction of uploaded bytes received (usable) by free-riders, sampled
  /// cumulatively over time.
  const util::TimeSeries& susceptibility_series() const {
    return susceptibility_;
  }

  std::size_t compliant_population() const { return compliant_population_; }
  std::size_t freerider_population() const { return freerider_population_; }
  std::size_t strategic_population() const { return strategic_population_; }

 private:
  /// Shared install()/install_restored() body: observer registration,
  /// population counts, sampler timer registration. Schedules nothing.
  void register_with(sim::Swarm& swarm);
  void sample(sim::Swarm& swarm);

  double sample_interval_;
  bool installed_ = false;
  /// The sampler's kEvExternalTimer sub-id (Swarm::add_timer).
  std::uint32_t timer_ = 0;
  std::size_t compliant_population_ = 0;
  std::size_t freerider_population_ = 0;
  std::size_t strategic_population_ = 0;
  std::vector<double> completion_;
  std::vector<double> bootstrap_;
  util::TimeSeries fairness_{"fairness"};
  util::TimeSeries susceptibility_{"susceptibility"};
};

/// Instantaneous Section V fairness over compliant peers: mean of
/// uploaded/downloaded byte ratios for peers with at least one usable
/// downloaded piece. Excludes the seeder. Returns -1 when undefined.
double current_fairness(const sim::Swarm& swarm);

/// Instantaneous eq. 3 fairness F = mean |log(d_i/u_i)| over compliant
/// peers with both rates positive; -1 when undefined.
double current_fairness_F(const sim::Swarm& swarm);

/// Cumulative susceptibility: free-riders' usable bytes over total
/// uploaded bytes (0 when nothing has been uploaded).
double current_susceptibility(const sim::Swarm& swarm);

}  // namespace coopnet::metrics
