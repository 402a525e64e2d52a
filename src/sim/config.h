// Swarm scenario configuration (Section V-A's simulation setup).
#pragma once

#include <cstdint>

#include "core/algorithm.h"
#include "core/capacity.h"
#include "sim/faults.h"
#include "sim/neighbor_graph.h"
#include "sim/types.h"

namespace coopnet::sim {

/// Which free-riding attacks the free-riders mount (Section V-B2: the most
/// effective attack is chosen per algorithm; the large-view exploit is
/// layered on top for Figure 6).
struct AttackConfig {
  /// Plain free-riding: never upload. Always on for free-riders.
  /// Collusion ring (vs T-Chain): free-riders falsely confirm receipt of
  /// reciprocal uploads for each other.
  bool collusion = false;
  /// Whitewashing (vs FairTorrent): periodically reset identity so
  /// accumulated deficits vanish.
  bool whitewashing = false;
  Seconds whitewash_interval = 10.0;
  /// Sybil praise (vs reputation): colluders keep reporting fake uploads
  /// for each other, inflating their global reputation scores.
  bool sybil_praise = false;
  Seconds sybil_interval = 10.0;
  /// Fake reported bytes/second per colluder while sybil praise is active.
  double sybil_rate = 4.0 * 1024 * 1024;
  /// Large-view exploit (Fig. 6): free-riders connect to many more
  /// neighbors than compliant peers.
  bool large_view = false;
};

/// Which piece a peer offers a given neighbor first. The paper assumes
/// local-rarest-first, which keeps per-user piece sets near-uniformly
/// random (the eq. 4-8 model's premise); the alternatives exist to ablate
/// that assumption.
enum class PieceSelection {
  kRarestFirst,  // fewest usable copies among active peers (default)
  kRandom,       // uniform over offerable pieces
  kSequential,   // lowest piece index first (streaming-style)
};

/// Which reputation signal the reputation algorithm consults.
enum class ReputationMode {
  /// The paper's Section V-A setup: everyone sees everyone's reported
  /// upload volume. Forgeable -- sybil praise inflates it directly.
  kGlobalLedger,
  /// EigenTrust (ref. [4]): global trust computed from received-service
  /// local trust, anchored at the seeders. Resists false praise
  /// (footnote 6 of the paper).
  kEigenTrust,
};

/// How leechers join the swarm. The paper's evaluation uses a flash crowd
/// (everyone within the first few seconds, Section V-A); the other
/// processes support arrival-regime ablations.
enum class ArrivalProcess {
  kFlashCrowd,  // uniform over [0, flash_crowd_window]
  kPoisson,     // exponential inter-arrivals at `arrival_rate`
  kStaggered,   // one peer every 1/arrival_rate seconds
};

/// Full configuration of one simulated swarm run.
struct SwarmConfig {
  core::Algorithm algorithm = core::Algorithm::kBitTorrent;

  // --- population -------------------------------------------------------
  std::size_t n_peers = 1000;
  double free_rider_fraction = 0.0;
  /// Fraction of BitTyrant-style strategic clients (upload only the
  /// minimum reciprocity requires; exploit BitTorrent's tit-for-tat,
  /// behave compliantly under the other mechanisms).
  double strategic_fraction = 0.0;
  core::CapacityDistribution capacities =
      core::CapacityDistribution::default_mix();
  double seeder_capacity = 4.0 * 1024 * 1024;  // bytes/second, per seeder
  std::size_t seeder_count = 1;                // n_S seeders

  // --- file -------------------------------------------------------------
  Bytes file_bytes = 128LL * 1024 * 1024;
  Bytes piece_bytes = 256LL * 1024;

  // --- arrivals / topology ----------------------------------------------
  ArrivalProcess arrivals = ArrivalProcess::kFlashCrowd;
  Seconds flash_crowd_window = 10.0;  // flash crowd: arrival window
  double arrival_rate = 10.0;         // Poisson/staggered: peers per second
  NeighborGraphConfig graph;
  /// Maximum concurrent incoming transfers per leecher (download-side
  /// back-pressure); 0 = unlimited, the paper's upload-constrained model.
  int max_incoming = 0;

  // --- algorithm knobs ----------------------------------------------------
  int upload_slots = 5;            // concurrent uploads per peer
  int seeder_slots = 8;
  Seconds rechoke_interval = 10.0; // BitTorrent rechoke period
  int optimistic_rounds = 3;       // rechoke rounds per optimistic rotation
  int n_bt = 4;                    // BitTorrent reciprocation slots
  double alpha_r = 0.1;            // reputation altruism share
  ReputationMode reputation_mode = ReputationMode::kGlobalLedger;
  PieceSelection piece_selection = PieceSelection::kRarestFirst;
  Seconds tchain_grace = 30.0;     // endgame key-release timeout (see docs)
  /// Maximum queued reciprocation duties (including deliveries in flight)
  /// before a T-Chain peer refuses new deliveries; 0 = unlimited. The cap
  /// is what starves non-colluding free-riders (their queue never drains);
  /// raising it trades fairness for efficiency (see the ablation bench).
  int tchain_backlog = 24;

  // --- attack -------------------------------------------------------------
  AttackConfig attack;

  // --- faults & churn -----------------------------------------------------
  /// Transfer loss/stall (with retry/backoff), leecher churn, and seeder
  /// outages. The default disables everything and is bit-for-bit identical
  /// to the fault-free simulator (no extra Rng draws, no extra events).
  FaultConfig faults;

  /// How long a finished peer stays and seeds before departing (Section V
  /// has peers "exit the swarm immediately after finishing", i.e. 0; a
  /// positive linger is a classic deployment lever that benefits every
  /// algorithm and is exercised by the ablation tests).
  Seconds linger_time = 0.0;

  // --- run control ---------------------------------------------------------
  Seconds max_time = 36000.0;
  Seconds retry_interval = 1.0;   // idle-slot refill period
  std::uint64_t seed = 1;
  /// Invariant-audit cadence: run a full InvariantAuditor check at every
  /// N-th swarm event (1 = every event). Only honored by builds configured
  /// with -DCOOPNET_AUDIT=ON; otherwise ignored at zero cost. 0 disables
  /// auditing even in audit builds.
  std::uint64_t audit_every = 1;

  PieceId piece_count() const {
    return static_cast<PieceId>((file_bytes + piece_bytes - 1) / piece_bytes);
  }
  std::size_t free_rider_count() const {
    return static_cast<std::size_t>(
        static_cast<double>(n_peers) * free_rider_fraction);
  }
  std::size_t strategic_count() const {
    return static_cast<std::size_t>(
        static_cast<double>(n_peers) * strategic_fraction);
  }

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// A small, fast configuration for tests and examples: 60 peers, 8 MB
  /// file, 128 KB pieces.
  static SwarmConfig small(core::Algorithm algo, std::uint64_t seed = 1);

  /// The paper's Section V-A scale: 1000 peers, 128 MB file.
  static SwarmConfig paper_scale(core::Algorithm algo,
                                 std::uint64_t seed = 1);
};

}  // namespace coopnet::sim
