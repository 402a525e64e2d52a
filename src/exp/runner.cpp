#include "exp/runner.h"

#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::exp {

metrics::RunReport run_scenario(const sim::SwarmConfig& config) {
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  collector.install(swarm);
  swarm.run();
  return metrics::build_report(swarm, collector);
}

sim::AttackConfig targeted_attack(core::Algorithm algo) {
  sim::AttackConfig attack;  // simple free-riding is always on
  switch (algo) {
    case core::Algorithm::kTChain:
      attack.collusion = true;
      break;
    case core::Algorithm::kFairTorrent:
      attack.whitewashing = true;
      break;
    case core::Algorithm::kReputation:
      attack.sybil_praise = true;
      break;
    default:
      break;
  }
  return attack;
}

sim::SwarmConfig with_freeriders(sim::SwarmConfig config, double fraction,
                                 bool large_view) {
  config.free_rider_fraction = fraction;
  config.attack = targeted_attack(config.algorithm);
  config.attack.large_view = large_view;
  return config;
}

namespace {

std::vector<sim::SwarmConfig> algorithm_cells(const sim::SwarmConfig& base) {
  std::vector<sim::SwarmConfig> cells(core::kAllAlgorithms.size(), base);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].algorithm = core::kAllAlgorithms[i];
  }
  return cells;
}

}  // namespace

SweepResult run_all_algorithms(const sim::SwarmConfig& base,
                               std::size_t jobs) {
  return run_cells(algorithm_cells(base), jobs);
}

}  // namespace coopnet::exp
