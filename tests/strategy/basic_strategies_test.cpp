// Behavioural tests for the altruism, reciprocity, FairTorrent, and
// reputation strategies on small swarms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>

#include "core/freeriding.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::strategy {
namespace {

using core::Algorithm;
using sim::EdgeCounters;
using sim::PeerId;
using sim::Swarm;
using sim::SwarmConfig;

SwarmConfig base_config(Algorithm algo, std::uint64_t seed = 5) {
  SwarmConfig c;
  c.algorithm = algo;
  c.n_peers = 24;
  c.file_bytes = 16 * 64 * 1024;  // 16 pieces
  c.piece_bytes = 64 * 1024;
  c.capacities = core::CapacityDistribution::homogeneous(128.0 * 1024);
  c.seeder_capacity = 256.0 * 1024;
  c.graph.degree = 23;  // fully connected
  c.flash_crowd_window = 2.0;
  c.max_time = 600.0;
  c.seed = seed;
  return c;
}

std::unique_ptr<Swarm> run(const SwarmConfig& config) {
  auto s = std::make_unique<Swarm>(config, make_strategy(config.algorithm));
  s->run();
  return s;
}

// ---------------------------------------------------------------- altruism

TEST(Altruism, EveryoneFinishesAndUploads) {
  auto sp = run(base_config(Algorithm::kAltruism));
  EXPECT_EQ(sp->compliant_unfinished(), 0u);
  std::size_t uploaders = 0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    if (sp->peer(i).uploaded_bytes() > 0) ++uploaders;
  }
  // Nearly everyone contributes under altruism (late finishers may not).
  EXPECT_GE(uploaders, sp->leechers() - 2);
}

TEST(Altruism, SpreadsUploadsAcrossManyTargets) {
  auto sp = run(base_config(Algorithm::kAltruism));
  // Aggregate indegree: every peer received from several distinct peers.
  std::size_t total_sources = 0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    for (const EdgeCounters& e : sp->peer(i).ledger()) {
      if (e.received > 0) ++total_sources;
    }
  }
  EXPECT_GT(total_sources / sp->leechers(), 3u);
}

// -------------------------------------------------------------- reciprocity

TEST(Reciprocity, NoPeerEverUploads) {
  auto config = base_config(Algorithm::kReciprocity);
  config.max_time = 120.0;  // cap: the seeder would finish everyone given time
  auto sp = run(config);
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    EXPECT_EQ(sp->peer(i).uploaded_bytes(), 0) << i;
  }
  EXPECT_GT(sp->peer(sp->seeder_id()).uploaded_bytes(), 0);
}

TEST(Reciprocity, OnlySeederContributesToDownloads) {
  auto config = base_config(Algorithm::kReciprocity);
  config.max_time = 120.0;
  auto sp = run(config);
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    for (const EdgeCounters& e : sp->peer(i).ledger()) {
      if (e.received > 0) {
        EXPECT_EQ(e.peer, sp->seeder_id());
      }
    }
  }
}

// -------------------------------------------------------------- FairTorrent

TEST(FairTorrent, DeficitsStayBoundedForCompliantPeers) {
  auto sp = run(base_config(Algorithm::kFairTorrent));
  // FairTorrent's O(log N) service-deficit bound ([7]); our piece-level
  // counters stay within a small constant of it in both directions.
  const double bound = core::fairtorrent_deficit_bound(
                           static_cast<std::int64_t>(sp->leechers())) +
                       3.0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    for (const EdgeCounters& e : sp->peer(i).ledger()) {
      EXPECT_LE(std::abs(static_cast<double>(e.deficit)), bound * 2.0);
    }
  }
}

TEST(FairTorrent, FinishesWithNearBalancedExchange) {
  auto sp = run(base_config(Algorithm::kFairTorrent));
  EXPECT_EQ(sp->compliant_unfinished(), 0u);
  // Homogeneous capacities + deficit steering => uploads close to
  // downloads for peers that stayed the whole run.
  double total_ratio = 0.0;
  std::size_t n = 0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    const double r = sp->peer(i).fairness_ratio();
    if (r >= 0.0) {
      total_ratio += r;
      ++n;
    }
  }
  EXPECT_NEAR(total_ratio / static_cast<double>(n), 1.0, 0.25);
}

// --------------------------------------------------------------- reputation

TEST(Reputation, NewcomersServedOnlyThroughAltruismShare) {
  auto config = base_config(Algorithm::kReputation);
  config.alpha_r = 0.0;  // disable the altruism share entirely
  config.max_time = 60.0;
  auto sp = run(config);
  // With alpha_r = 0 and all reputations starting at zero, peers can never
  // select a target: only the seeder moves data.
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    EXPECT_EQ(sp->peer(i).uploaded_bytes(), 0) << i;
  }
}

TEST(Reputation, AltruismShareEnablesExchange) {
  auto config = base_config(Algorithm::kReputation);
  config.alpha_r = 0.2;
  auto sp = run(config);
  EXPECT_EQ(sp->compliant_unfinished(), 0u);
  std::size_t uploaders = 0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    if (sp->peer(i).uploaded_bytes() > 0) ++uploaders;
  }
  EXPECT_GT(uploaders, sp->leechers() / 2);
}

TEST(Reputation, HigherReputationAttractsMoreDownloads) {
  // Heterogeneous capacities: high-capacity peers earn reputation faster
  // and should receive more reciprocal bandwidth.
  auto config = base_config(Algorithm::kReputation);
  config.capacities = core::CapacityDistribution(
      {{64.0 * 1024, 0.5}, {512.0 * 1024, 0.5}});
  auto sp = run(config);
  double fast_down = 0.0, slow_down = 0.0;
  std::size_t fast_n = 0, slow_n = 0;
  for (PeerId i = 0; i < sp->leechers(); ++i) {
    const sim::ConstPeer p = sp->peer(i);
    const double rate =
        static_cast<double>(p.downloaded_usable_bytes()) /
        (p.finish_time() - p.arrival_time());
    if (p.capacity() > 256.0 * 1024) {
      fast_down += rate;
      ++fast_n;
    } else {
      slow_down += rate;
      ++slow_n;
    }
  }
  EXPECT_GT(fast_down / static_cast<double>(fast_n),
            slow_down / static_cast<double>(slow_n));
}

}  // namespace
}  // namespace coopnet::strategy
