// Scenario: watch piece availability evolve through a swarm's life and
// feed the *measured* piece-count distribution p_k into the paper's
// exchange-probability model (Section IV-A.2) at each stage -- showing how
// T-Chain's indirect reciprocity closes the gap to altruism as the swarm
// matures, on real (simulated) distributions rather than stylized ones.
//
//   ./availability_study [--n 200] [--algo BitTorrent] [--seed 5]
#include <cstdio>

#include "exp/runner.h"
#include "metrics/availability.h"
#include "strategy/factory.h"
#include "util/cli.h"
#include "util/table.h"

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const core::Algorithm algo =
      core::algorithm_from_string(cli.get_string("algo", "BitTorrent"));

  auto config = sim::SwarmConfig::paper_scale(
      algo, cli.get_u64("seed", 5));
  config.n_peers = cli.get_count("n", 200, sim::kMaxPeerCount);
  config.file_bytes = 32LL * 1024 * 1024;
  config.graph.degree = 25;
  config.max_time = 2000.0;

  sim::Swarm swarm(config, strategy::make_strategy(algo));
  metrics::AvailabilityTracker tracker(5.0);
  tracker.install(swarm);
  std::printf("Running a %zu-peer %s swarm and sampling piece availability "
              "every 5 s...\n\n",
              config.n_peers, core::to_string(algo).c_str());
  swarm.run();

  const auto& snapshots = tracker.snapshots();
  if (snapshots.empty()) {
    std::printf("swarm drained before the first sample\n");
    return 0;
  }

  util::Table table("Measured availability -> analytical exchange "
                    "probabilities (eqs. 4-8 on the measured p_k)");
  table.set_header({"t (s)", "active", "mean pieces", "min replication",
                    "E[pi] altruism", "E[pi] T-Chain", "E[pi] BitTorrent"});
  // Sample a handful of snapshots across the run.
  const std::size_t step = std::max<std::size_t>(1, snapshots.size() / 8);
  for (std::size_t i = 0; i < snapshots.size(); i += step) {
    const auto& snap = snapshots[i];
    const auto dist = metrics::to_distribution(snap);
    const auto M = dist.total_pieces();
    const auto n_active =
        static_cast<std::int64_t>(snap.active_leechers);
    if (n_active < 2) continue;
    const double pi_alt = core::expected_pi(dist, [&](auto mj, auto mi) {
      return core::pi_altruism(mj, mi, M);
    });
    const double pi_tc = core::expected_pi(dist, [&](auto mj, auto mi) {
      return core::pi_tchain(mj, mi, dist, n_active);
    });
    const double pi_bt = core::expected_pi(dist, [&](auto mj, auto mi) {
      return core::pi_bittorrent(mj, mi, M, 0.2);
    });
    table.add_row({util::Table::num(snap.time, 4),
                   std::to_string(snap.active_leechers),
                   util::Table::num(snap.mean_pieces, 4),
                   std::to_string(snap.min_replication),
                   util::Table::num(pi_alt, 4), util::Table::num(pi_tc, 4),
                   util::Table::num(pi_bt, 4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nWhat to look for: early on (few pieces each) direct reciprocity "
      "is nearly\nimpossible and BitTorrent's E[pi] trails altruism's, "
      "while T-Chain's indirect\nreciprocity already tracks altruism "
      "(Cor. 2); as the swarm fills, all three\nconverge toward 1 and "
      "piece availability stops being the bottleneck.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "algo", "NAME", "mechanism (default BitTorrent)"},
      {"scenario", "n", "N", "leechers (default 200)"},
      {"run", "seed", "S", "random seed (default 5)"},
  });
  return cli.run(
      "availability_study -- measured piece availability fed into the eq. 4-8 "
      "model",
      run);
}
