// InvariantAuditor: the full fault/churn matrix runs clean, corrupted
// state is detected with a structured diagnostic, and the audit knobs
// behave (cadence, opt-out, compile-time gating).
#include "sim/auditor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::sim {
namespace {

using core::Algorithm;

SwarmConfig audit_config(Algorithm algo, std::uint64_t seed = 7) {
  SwarmConfig c;
  c.algorithm = algo;
  c.n_peers = 12;
  c.file_bytes = 16 * 64 * 1024;  // 16 pieces of 64 KB
  c.piece_bytes = 64 * 1024;
  c.capacities = core::CapacityDistribution::homogeneous(128.0 * 1024);
  c.seeder_capacity = 256.0 * 1024;
  c.graph.degree = 11;  // fully connected
  c.flash_crowd_window = 1.0;
  c.max_time = 5000.0;
  c.seed = seed;
  return c;
}

std::unique_ptr<Swarm> run_with(const SwarmConfig& config) {
  auto s = std::make_unique<Swarm>(config,
                                   strategy::make_strategy(config.algorithm));
  s->run();
  return s;
}

// --- plumbing --------------------------------------------------------------

TEST(Auditor, AuditorPresentExactlyWhenCompiledInAndEnabled) {
  auto config = audit_config(Algorithm::kAltruism);
  ASSERT_EQ(config.audit_every, 1u);  // audit builds audit by default
  {
    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    EXPECT_EQ(swarm.auditor() != nullptr, kAuditCompiledIn);
  }
  config.audit_every = 0;  // explicit opt-out works even in audit builds
  {
    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    EXPECT_EQ(swarm.auditor(), nullptr);
  }
}

TEST(Auditor, CleanRunPassesEveryCheck) {
  if (!kAuditCompiledIn) GTEST_SKIP() << "needs -DCOOPNET_AUDIT=ON";
  auto swarm = run_with(audit_config(Algorithm::kBitTorrent));
  const InvariantAuditor* auditor = swarm->auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_GT(auditor->events_recorded(), 0u);
  EXPECT_GT(auditor->checks_run(), 0u);
  // The run drained: nothing in flight, nothing held.
  EXPECT_EQ(auditor->inflight_count(), 0u);
  EXPECT_NO_THROW(auditor->check_now());
}

TEST(Auditor, CheckCadenceIsRespected) {
  if (!kAuditCompiledIn) GTEST_SKIP() << "needs -DCOOPNET_AUDIT=ON";
  auto config = audit_config(Algorithm::kAltruism);
  config.audit_every = 64;
  auto swarm = run_with(config);
  const InvariantAuditor* auditor = swarm->auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_GT(auditor->events_recorded(), 0u);
  // Sparse cadence runs far fewer checks than events.
  EXPECT_LT(auditor->checks_run(), auditor->events_recorded());
}

// --- the bug-sweep matrix --------------------------------------------------

// Every mechanism under moderate and heavy churn with lossy transfers and
// retries enabled: the fail_transfer -> backoff -> retry_transfer window
// interleaved with churn is exactly the accounting surface the auditor
// exists for. Zero violations expected.
TEST(Auditor, ChurnRetryMatrixRunsWithZeroViolations) {
  for (Algorithm algo :
       {Algorithm::kReciprocity, Algorithm::kTChain, Algorithm::kBitTorrent,
        Algorithm::kFairTorrent, Algorithm::kReputation,
        Algorithm::kAltruism}) {
    for (int heavy = 0; heavy < 2; ++heavy) {
      auto config = audit_config(algo, /*seed=*/31 + heavy);
      config.faults = heavy ? heavy_churn() : moderate_churn();
      config.faults.transfer_loss_rate = 0.10;
      config.faults.transfer_stall_rate = 0.05;
      config.faults.stall_timeout = 20.0;
      SCOPED_TRACE(core::to_string(algo) +
                   (heavy ? " / heavy churn" : " / moderate churn"));
      EXPECT_NO_THROW(run_with(config));
    }
  }
}

TEST(Auditor, SeederOutagesAuditClean) {
  auto config = audit_config(Algorithm::kBitTorrent, /*seed=*/43);
  config.faults = moderate_churn();
  config.faults.transfer_loss_rate = 0.10;
  config.faults.seeder_uptime = 60.0;
  config.faults.seeder_downtime = 15.0;
  EXPECT_NO_THROW(run_with(config));
}

// --- corruption detection --------------------------------------------------

// Observer that sabotages swarm state mid-run through a non-const backdoor,
// to prove the auditor actually trips on real corruption.
class Saboteur : public SwarmObserver {
 public:
  enum class Mode { kLeakSlot, kPhantomPending };
  Saboteur(Swarm* target, Mode mode) : target_(target), mode_(mode) {}

  void on_transfer(const Swarm&, const Transfer& t) override {
    if (done_) return;
    if (mode_ == Mode::kLeakSlot) {
      done_ = true;
      ++target_->peer(t.from).busy_slots();  // a decrement was "forgotten"
    } else {
      // A reservation appears out of nowhere (no in-flight transfer).
      // Corrupt the downloader: unlike the uploader (often the seeder,
      // whose unavailable set is already full), it still has free pieces.
      Peer p = target_->peer(t.to);
      for (PieceId piece = 0; piece < p.pending().size(); ++piece) {
        if (!p.unavailable().has(piece)) {
          p.pending().add(piece);
          p.unavailable().add(piece);
          done_ = true;
          break;
        }
      }
    }
  }

 private:
  Swarm* target_;
  Mode mode_;
  bool done_ = false;
};

TEST(Auditor, DetectsLeakedUploadSlot) {
  if (!kAuditCompiledIn) GTEST_SKIP() << "needs -DCOOPNET_AUDIT=ON";
  auto config = audit_config(Algorithm::kAltruism);
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  Saboteur saboteur(&swarm, Saboteur::Mode::kLeakSlot);
  swarm.set_observer(&saboteur);
  try {
    swarm.run();
    FAIL() << "corrupted busy_slots was not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), "busy-slots");
    EXPECT_NE(v.peer(), kNoPeer);
    EXPECT_GE(v.time(), 0.0);
    EXPECT_GT(v.events_processed(), 0u);
    EXPECT_FALSE(v.trail().empty());
    // The what() message carries the full structured diagnostic.
    EXPECT_NE(std::string(v.what()).find("busy-slots"), std::string::npos);
    EXPECT_NE(std::string(v.what()).find("recent events"),
              std::string::npos);
  }
}

TEST(Auditor, DetectsPhantomReservation) {
  if (!kAuditCompiledIn) GTEST_SKIP() << "needs -DCOOPNET_AUDIT=ON";
  auto config = audit_config(Algorithm::kAltruism);
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  Saboteur saboteur(&swarm, Saboteur::Mode::kPhantomPending);
  swarm.set_observer(&saboteur);
  try {
    swarm.run();
    FAIL() << "phantom pending reservation was not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), "pending-reservation");
  }
}

// The hungry index is derived state the seeders pick targets from. A
// stand-alone auditor recounts it in any build: corrupting a leecher's
// sets without refresh_hungry leaves its bit stale, and the recount
// names the peer.
TEST(Auditor, DetectsAStaleHungryBit) {
  auto config = audit_config(Algorithm::kAltruism);
  config.audit_every = 0;  // the stand-alone auditor below does the check
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start();
  // Find a mid-download leecher with nothing in flight or locked.
  PeerId victim = kNoPeer;
  for (Seconds t = 0.5;
       victim == kNoPeer && !swarm.finished() && t <= config.max_time;
       t += 0.5) {
    swarm.advance_until(t);
    for (PeerId id = 0; id < swarm.leechers(); ++id) {
      ConstPeer p = std::as_const(swarm).peer(id);
      if (p.active() && !p.pieces().empty() && !p.pieces().complete() &&
          p.pending().empty() && p.locked().empty()) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const InvariantAuditor auditor(swarm);
  EXPECT_NO_THROW(auditor.check_hungry_index());
  ASSERT_TRUE(swarm.peer_store().hungry(victim));

  // Hand the victim every missing piece behind the store's back: the set
  // algebra stays consistent, but its unavailable set is now complete.
  Peer p = swarm.peer(victim);
  for (PieceId piece = 0; piece < p.pieces().size(); ++piece) {
    if (!p.pieces().has(piece)) {
      p.pieces().add(piece);
      p.unavailable().add(piece);
      p.transferable().add(piece);
    }
  }
  try {
    auditor.check_hungry_index();
    FAIL() << "a stale hungry bit was not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), "hungry-index");
    EXPECT_EQ(v.peer(), victim);
  }
  // refresh_hungry is what brings the bit back in line.
  p.refresh_hungry();
  EXPECT_FALSE(swarm.peer_store().hungry(victim));
  EXPECT_NO_THROW(auditor.check_hungry_index());
}

// Audited runs are pure observation: enabling/disabling the auditor (or
// thinning its cadence) must not change the simulation's outcome.
TEST(Auditor, AuditingDoesNotPerturbTheRun) {
  auto config = audit_config(Algorithm::kBitTorrent, /*seed=*/91);
  config.faults = moderate_churn();
  config.faults.transfer_loss_rate = 0.10;

  config.audit_every = 1;
  auto audited = run_with(config);
  config.audit_every = 0;
  auto bare = run_with(config);

  EXPECT_EQ(audited->engine().events_processed(),
            bare->engine().events_processed());
  EXPECT_EQ(audited->engine().now(), bare->engine().now());
  EXPECT_EQ(audited->fault_stats().goodput_bytes,
            bare->fault_stats().goodput_bytes);
  EXPECT_EQ(audited->fault_stats().offered_bytes,
            bare->fault_stats().offered_bytes);
  for (PeerId id = 0; id < static_cast<PeerId>(audited->leechers()); ++id) {
    EXPECT_EQ(audited->peer(id).finish_time(), bare->peer(id).finish_time())
        << "peer " << id;
  }
}

}  // namespace
}  // namespace coopnet::sim
