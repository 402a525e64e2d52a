// Differential test of the seeders' upload path: at many mid-run points
// of churned, lossy cells with seeder outages, the hungry index
// (Swarm::hungry_leecher_count and hungry_leecher) must list exactly the
// leechers an origin seeder can offer a piece, in its row's order. When
// nothing can refuse one (max_incoming 0, a strategy that admits
// everyone) that is the seeder's whole candidate list -- the same count,
// so the same draw, and the same k-th entry, so the same target;
// otherwise the seeder scans with needy_neighbors, which must give the
// same list as the reference. The reference filter is kept here as it
// stood before the index: active non-seeder neighbor, accepts_incoming,
// can_offer, accepts_delivery. (The test's name recalls the per-edge
// interest memo that filter once went through; its verdicts are the
// plain needs_from ones.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/json.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::sim {
namespace {

struct PathCell {
  core::Algorithm algo;
  int max_incoming;
};

std::string path_cell_name(const PathCell& cell) {
  std::string name = core::to_string(cell.algo);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_maxincoming" + std::to_string(cell.max_incoming);
}

SwarmConfig path_config(const PathCell& cell) {
  SwarmConfig config = SwarmConfig::small(cell.algo, /*seed=*/29);
  config.n_peers = 80;
  config.seeder_count = 2;
  config.max_incoming = cell.max_incoming;
  config.faults = moderate_churn();
  config.faults.transfer_loss_rate = 0.05;
  config.faults.seeder_uptime = 20.0;
  config.faults.seeder_downtime = 5.0;
  return config;
}

/// The seeder's candidates as the reference filter lists them; with
/// `admit` false, before accepts_incoming and accepts_delivery.
std::vector<PeerId> reference_filter(const Swarm& swarm,
                                     const ExchangeStrategy& strategy,
                                     PeerId seeder, bool admit) {
  const PeerStore& store = swarm.peer_store();
  std::vector<PeerId> out;
  for (const PeerId* n = store.neighbors_begin(seeder);
       n != store.neighbors_end(seeder); ++n) {
    // needs_from is the active/non-seeder test plus can_offer;
    // accepts_incoming commutes with it.
    if (admit && !swarm.accepts_incoming(*n)) continue;
    if (!swarm.needs_from(*n, seeder)) continue;
    if (admit && !strategy.accepts_delivery(swarm, *n)) continue;
    out.push_back(*n);
  }
  return out;
}

std::vector<PeerId> hungry_leechers(const Swarm& swarm) {
  std::vector<PeerId> out;
  for (std::size_t k = 0; k < swarm.hungry_leecher_count(); ++k) {
    out.push_back(swarm.hungry_leecher(k));
  }
  return out;
}

std::string report_of(Swarm& swarm, metrics::RunMetrics& collector) {
  return metrics::to_json(metrics::build_report(swarm, collector));
}

class SeederPath : public ::testing::TestWithParam<PathCell> {};

TEST_P(SeederPath, CandidatesMatchTheMemoFilterAtEveryProbe) {
  const SwarmConfig config = path_config(GetParam());
  auto owned = strategy::make_strategy(config.algorithm);
  const ExchangeStrategy& strategy = *owned;
  Swarm swarm(config, std::move(owned));
  metrics::RunMetrics collector;
  collector.install(swarm);
  swarm.start();
  // seeder_action counts the index only when nothing can refuse.
  const bool counts_index =
      config.max_incoming == 0 && strategy.admits_everyone();

  std::size_t probes = 0;
  std::size_t nonempty = 0;
  std::size_t filtered = 0;  // probes where a hungry leecher was refused
  for (Seconds t = 0.1; !swarm.finished() && t <= config.max_time;
       t += 0.1) {
    swarm.advance_until(t);
    for (PeerId seeder = swarm.seeder_id(); seeder < swarm.peer_count();
         ++seeder) {
      SCOPED_TRACE("seeder " + std::to_string(seeder) + " at t = " +
                   std::to_string(t));
      const std::vector<PeerId> want =
          reference_filter(swarm, strategy, seeder, /*admit=*/true);
      const std::vector<PeerId> hungry = hungry_leechers(swarm);
      ASSERT_EQ(hungry, reference_filter(swarm, strategy, seeder, false));
      if (counts_index) {
        ASSERT_EQ(hungry, want);
      }
      // The scan the seeder otherwise draws over.
      ASSERT_EQ(swarm.needy_neighbors(seeder), want);

      ++probes;
      nonempty += want.empty() ? 0 : 1;
      filtered += want.size() < hungry.size() ? 1 : 0;
    }
  }
  ASSERT_TRUE(swarm.finished());
  EXPECT_GT(probes, 500u);
  EXPECT_GT(nonempty, 100u) << "too few probes had a candidate";
  // T-Chain's backlog cap and max_incoming refuse hungry leechers; a
  // strategy that admits everyone with no incoming cap refuses none.
  if (config.max_incoming > 0 ||
      config.algorithm == core::Algorithm::kTChain) {
    EXPECT_GT(filtered, 0u) << "the filter never refused anyone";
  } else {
    EXPECT_EQ(filtered, 0u);
  }

  // Probing draws nothing and changes no result-bearing state.
  Swarm plain(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics plain_collector;
  plain_collector.install(plain);
  plain.run();
  EXPECT_EQ(report_of(swarm, collector), report_of(plain, plain_collector));
  EXPECT_EQ(swarm.engine().events_processed(),
            plain.engine().events_processed());
}

INSTANTIATE_TEST_SUITE_P(
    ChurnedLossyOutages, SeederPath,
    ::testing::Values(PathCell{core::Algorithm::kReciprocity, 0},
                      PathCell{core::Algorithm::kReciprocity, 2},
                      PathCell{core::Algorithm::kTChain, 0},
                      PathCell{core::Algorithm::kTChain, 2}),
    [](const ::testing::TestParamInfo<PathCell>& info) {
      return path_cell_name(info.param);
    });

}  // namespace
}  // namespace coopnet::sim
