// The swarm configurations the test suite pins: the swarm-equivalence
// golden cells (6 mechanisms x {clean, churn} x N in {50, 200}, plus the
// T-Chain admission cells, the seeder-path cells and the ledger-row
// cells) and a set of named
// configurations whose checkpoint fingerprints are committed under
// tests/golden/.
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

/// Scenarios beyond the clean/churn matrix, each on the no-fault config
/// unless noted: T-Chain admission (backlog, colluders, max_incoming) and
/// the branches of the seeders' upload path (several seeders with
/// outages, max_incoming on a mechanism that admits everyone, lingering
/// finished peers, staggered arrivals), and ledger rows that differ most
/// from neighbor rows (whitewashing drops records, large views lengthen
/// rows, several seeders end every row).
enum class Variant : std::uint8_t {
  kDefault,
  kBacklog2,      // tchain_backlog = 2
  kColluders,     // free_rider_fraction = 0.2 with attack.collusion
  kMaxIncoming2,  // max_incoming = 2
  kSeeders3,      // seeder_count = 3, every seeder down 10 s of each 40 s
  kLinger,        // finished peers seed for 20 s before leaving
  kStaggered,     // one arrival per second, so arrivals tie with ticks
  kWhitewash      // free_rider_fraction = 0.2, whitewashing large-view
                  // free-riders
};

struct Cell {
  core::Algorithm algo;
  bool churn;
  Variant variant;
  std::size_t n;
};

inline const char* scenario_name(const Cell& cell) {
  switch (cell.variant) {
    case Variant::kDefault:
      return cell.churn ? "_churn" : "_clean";
    case Variant::kBacklog2:
      return "_backlog2";
    case Variant::kColluders:
      return "_colluders";
    case Variant::kMaxIncoming2:
      return "_maxincoming2";
    case Variant::kSeeders3:
      return "_seeders3";
    case Variant::kLinger:
      return "_linger";
    case Variant::kStaggered:
      return "_staggered";
    case Variant::kWhitewash:
      return "_whitewash";
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
  switch (cell.variant) {
    case Variant::kDefault:
      break;
    case Variant::kBacklog2:
      config.tchain_backlog = 2;
      break;
    case Variant::kColluders:
      config.free_rider_fraction = 0.2;
      config.attack.collusion = true;
      break;
    case Variant::kMaxIncoming2:
      config.max_incoming = 2;
      break;
    case Variant::kSeeders3:
      config.seeder_count = 3;
      config.faults.seeder_uptime = 30.0;
      config.faults.seeder_downtime = 10.0;
      break;
    case Variant::kLinger:
      config.linger_time = 20.0;
      break;
    case Variant::kStaggered:
      config.arrivals = ArrivalProcess::kStaggered;
      config.arrival_rate = 1.0;
      break;
    case Variant::kWhitewash:
      config.free_rider_fraction = 0.2;
      config.attack.whitewashing = true;
      config.attack.large_view = true;
      break;
  }
  return config;
}

inline std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (core::Algorithm algo : core::kAllAlgorithms) {
    for (bool churn : {false, true}) {
      for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
        cells.push_back({algo, churn, Variant::kDefault, n});
      }
    }
  }
  for (Variant variant : {Variant::kBacklog2, Variant::kColluders,
                          Variant::kMaxIncoming2}) {
    for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
      cells.push_back({core::Algorithm::kTChain, false, variant, n});
    }
  }
  // The seeders' upload path: both of its branches (every candidate
  // admitted, or each one filtered), several seeders going dark, and the
  // finished peers that seed through the neighbor scan.
  const std::pair<core::Algorithm, Variant> seeder_path[] = {
      {core::Algorithm::kReciprocity, Variant::kSeeders3},
      {core::Algorithm::kTChain, Variant::kSeeders3},
      {core::Algorithm::kBitTorrent, Variant::kMaxIncoming2},
      {core::Algorithm::kFairTorrent, Variant::kLinger},
      {core::Algorithm::kReciprocity, Variant::kStaggered},
      {core::Algorithm::kBitTorrent, Variant::kStaggered},
  };
  for (const auto& [algo, variant] : seeder_path) {
    for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
      cells.push_back({algo, false, variant, n});
    }
  }
  // Ledger rows against neighbor rows: whitewashing forgets records,
  // large-view free-riders have long rows, and three seeders end every
  // leecher's row.
  const std::pair<core::Algorithm, Variant> ledger_rows[] = {
      {core::Algorithm::kFairTorrent, Variant::kWhitewash},
      {core::Algorithm::kBitTorrent, Variant::kWhitewash},
      {core::Algorithm::kFairTorrent, Variant::kSeeders3},
  };
  for (const auto& [algo, variant] : ledger_rows) {
    for (std::size_t n : {std::size_t{50}, std::size_t{200}}) {
      cells.push_back({algo, false, variant, n});
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
