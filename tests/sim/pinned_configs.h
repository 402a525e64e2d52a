// The swarm configurations the test suite pins: the swarm-equivalence
// golden cells (6 mechanisms x {clean, churn} x N in {50, 200}, plus the
// T-Chain admission cells) and a set of named configurations whose
// checkpoint fingerprints are committed under tests/golden/.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "exp/runner.h"
#include "sim/config.h"
#include "sim/faults.h"

namespace coopnet::sim {

/// T-Chain admission scenarios, each on the no-fault config.
enum class Admission : std::uint8_t {
  kDefault,
  kBacklog2,     // tchain_backlog = 2
  kColluders,    // free_rider_fraction = 0.2 with attack.collusion
  kMaxIncoming2  // max_incoming = 2
};

struct Cell {
  core::Algorithm algo;
  bool churn;
  Admission admission;
  std::size_t n;
};

inline const char* scenario_name(const Cell& cell) {
  switch (cell.admission) {
    case Admission::kDefault:
      return cell.churn ? "_churn" : "_clean";
    case Admission::kBacklog2:
      return "_backlog2";
    case Admission::kColluders:
      return "_colluders";
    case Admission::kMaxIncoming2:
      return "_maxincoming2";
  }
  return "_unknown";
}

inline std::string cell_name(const Cell& cell) {
  std::string name = core::to_string(cell.algo);
  for (auto& c : name) {
    if (c == '-' || c == ' ') c = '_';
  }
  return name + scenario_name(cell) + "_n" + std::to_string(cell.n);
}

inline SwarmConfig cell_config(const Cell& cell) {
  auto config = SwarmConfig::small(cell.algo, /*seed=*/415);
  config.n_peers = cell.n;
  config.max_time = 4000.0;
  if (cell.churn) {
    // moderate_churn's ~500 s mean session against the small scenario's
    // multi-hundred-second downloads: a sizeable minority of peers churn.
    // The 5% loss rate layers the retry/backoff machinery on top, so the
    // fault cells pin the failure paths too, not just the happy path.
    config.faults = moderate_churn();
    config.faults.transfer_loss_rate = 0.05;
  }
  switch (cell.admission) {
    case Admission::kDefault:
      break;
    case Admission::kBacklog2:
      config.tchain_backlog = 2;
      break;
    case Admission::kColluders:
      config.free_rider_fraction = 0.2;
      config.attack.collusion = true;
      break;
    case Admission::kMaxIncoming2:
      config.max_incoming = 2;
      break;
  }
  return config;
}

inline std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (core::Algorithm algo : core::kAllAlgorithms) {
    for (bool churn : {false, true}) {
      for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
        cells.push_back({algo, churn, Admission::kDefault, n});
      }
    }
  }
  for (Admission admission : {Admission::kBacklog2, Admission::kColluders,
                              Admission::kMaxIncoming2}) {
    for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
      cells.push_back({core::Algorithm::kTChain, false, admission, n});
    }
  }
  return cells;
}

/// coopnet_run's configuration when no flag is given: the bench "mid"
/// scale (the paper's setup with 300 peers, a 32 MB file and degree 30)
/// under the bench defaults (seed 7, max_time 4000).
inline SwarmConfig coopnet_run_default() {
  SwarmConfig config =
      SwarmConfig::paper_scale(core::Algorithm::kBitTorrent, 7);
  config.n_peers = 300;
  config.file_bytes = 32LL * 1024 * 1024;
  config.graph.degree = 30;
  config.max_time = 4000.0;
  return config;
}

/// Every pinned configuration, named. The order is the golden file's.
inline std::vector<std::pair<std::string, SwarmConfig>> pinned_configs() {
  std::vector<std::pair<std::string, SwarmConfig>> out;
  for (const Cell& cell : all_cells()) {
    out.emplace_back("cell/" + cell_name(cell), cell_config(cell));
  }
  for (core::Algorithm algo : core::kAllAlgorithmsExtended) {
    out.emplace_back("small/" + core::to_string(algo),
                     SwarmConfig::small(algo));
  }
  for (core::Algorithm algo : core::kAllAlgorithmsExtended) {
    out.emplace_back("paper_scale/" + core::to_string(algo),
                     SwarmConfig::paper_scale(algo));
  }
  out.emplace_back("coopnet_run", coopnet_run_default());
  SwarmConfig moderate = coopnet_run_default();
  moderate.faults = moderate_churn();
  out.emplace_back("coopnet_run/moderate_churn", moderate);
  SwarmConfig heavy = coopnet_run_default();
  heavy.faults = heavy_churn();
  out.emplace_back("coopnet_run/heavy_churn", heavy);
  for (core::Algorithm algo : core::kAllAlgorithmsExtended) {
    SwarmConfig config = coopnet_run_default();
    config.algorithm = algo;
    config.free_rider_fraction = 0.2;
    config.attack = exp::targeted_attack(algo);
    out.emplace_back("targeted_attack/" + core::to_string(algo), config);
  }
  return out;
}

}  // namespace coopnet::sim
