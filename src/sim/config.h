// Swarm scenario configuration (Section V-A's simulation setup).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "core/algorithm.h"
#include "core/capacity.h"
#include "sim/faults.h"
#include "sim/neighbor_graph.h"
#include "sim/types.h"
#include "util/parse.h"

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

  /// Throws std::invalid_argument naming the first field outside its
  /// legal range, or the first inconsistent combination.
  void validate() const;

  /// A small, fast configuration for tests and examples: 60 peers, 8 MB
  /// file, 128 KB pieces.
  static SwarmConfig small(core::Algorithm algo, std::uint64_t seed = 1);

  /// The paper's Section V-A scale: 1000 peers, 128 MB file.
  static SwarmConfig paper_scale(core::Algorithm algo,
                                 std::uint64_t seed = 1);
};

// --- the config schema ----------------------------------------------------
// Every field above, the nested ones included, is declared once: in the
// table below (fingerprint key, flag, legal range, help). Its row order is
// the canonical_config_string order, which v3 snapshots, fleet HELLOs and
// sweep journals compare, so it is frozen. exp/scenario.h binds the table
// to the command line.

/// Canonical rendering of every result-affecting field -- doubles as
/// IEEE-754 bit patterns, so equality means bit-equality.
std::string canonical_config_string(const SwarmConfig& config);

namespace schema {

using util::Range;

inline constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range at_least(double lo, double hi = kInf) { return {lo, hi}; }
inline constexpr Range kPositive{0.0, kInf, true};
inline constexpr Range kBelowOne{0.0, 1.0, false, true};

/// One schema row. Sizes whose flag counts KiB or MiB set `unit`, and
/// their range reads the same in either unit. Every integer field's range
/// starts at 0 or above.
struct Field {
  const char* key;   // fingerprint key
  const char* flag;  // CLI flag, without "--"
  const char* help;
  Range range{};
  double unit = 1.0;  // the flag's value times `unit` is the field's
};

template <class T>
inline constexpr bool kIsInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool>;
template <class T>
inline constexpr bool kIsNumber =
    kIsInteger<T> || std::is_floating_point_v<T>;

template <class Faults, class Row>
void for_each_fault_field(Faults& f, Row&& row) {
  row({"fault_transfer_loss_rate", "loss", "transfer loss probability",
       kBelowOne}, f.transfer_loss_rate);
  row({"fault_transfer_stall_rate", "stall", "transfer stall probability",
       kBelowOne}, f.transfer_stall_rate);
  row({"fault_stall_timeout", "stall-timeout",
       "seconds a stalled transfer holds its slot (> 0 with stalls)"},
      f.stall_timeout);
  row({"fault_max_retries", "max-retries", "retries per failed transfer",
       at_least(0)}, f.max_retries);
  row({"fault_retry_backoff", "retry-backoff", "first retry backoff, s",
       kPositive}, f.retry_backoff);
  row({"fault_retry_backoff_factor", "backoff-factor",
       "retry backoff growth per attempt", at_least(1)},
      f.retry_backoff_factor);
  row({"fault_retry_backoff_cap", "backoff-cap",
       "retry backoff cap, s (>= --retry-backoff)", kPositive},
      f.retry_backoff_cap);
  row({"fault_churn_rate", "churn-rate",
       "leecher departures per second of session", at_least(0)}, f.churn_rate);
  row({"fault_rejoin_probability", "rejoin",
       "probability a churned leecher rejoins", at_least(0, 1)},
      f.rejoin_probability);
  row({"fault_mean_downtime", "mean-downtime",
       "mean downtime before a rejoin, s", at_least(0)}, f.mean_downtime);
  row({"fault_seeder_uptime", "seeder-uptime",
       "seeder service between outages, s (0 = no outages)", at_least(0)},
      f.seeder_uptime);
  row({"fault_seeder_downtime", "seeder-downtime", "seeder outage, s",
       at_least(0)}, f.seeder_downtime);
}

/// The SwarmConfig schema: one row per field, in the frozen fingerprint
/// order. Calls row(field, member) with the member of `c` (const or not)
/// that the row describes.
template <class Config, class Row>
void for_each_field(Config& c, Row&& row) {
  row({"algorithm", "algo", "incentive mechanism"}, c.algorithm);
  row({"n_peers", "n", "leechers", at_least(2, kMaxPeerCount)}, c.n_peers);
  row({"free_rider_fraction", "free-riders", "fraction of free-riders",
       kBelowOne}, c.free_rider_fraction);
  row({"strategic_fraction", "strategic",
       "fraction of BitTyrant-style strategic clients", kBelowOne},
      c.strategic_fraction);
  row({"capacity_classes", "capacities",
       "leecher upload classes: bytes/s and population share"}, c.capacities);
  row({"seeder_capacity", "seeder-capacity", "seeder upload, bytes/s",
       kPositive}, c.seeder_capacity);
  row({"seeder_count", "seeders", "seeders", at_least(1, kMaxPeerCount)},
      c.seeder_count);
  row({"file_bytes", "file-mb", "file size, MiB", kPositive, 1 << 20},
      c.file_bytes);
  row({"piece_bytes", "piece-kb", "piece size, KiB", kPositive, 1 << 10},
      c.piece_bytes);
  row({"arrivals", "arrivals", "how leechers join"}, c.arrivals);
  row({"flash_crowd_window", "flash-window", "flash-crowd arrival window, s",
       at_least(0)}, c.flash_crowd_window);
  row({"arrival_rate", "arrival-rate", "peers/s for poisson/staggered arrivals",
       kPositive}, c.arrival_rate);
  row({"graph_degree", "degree", "neighbor-set size", at_least(1)},
      c.graph.degree);
  row({"graph_large_view_multiplier", "view-mult",
       "neighbor-set multiplier of large-view free-riders", at_least(1)},
      c.graph.large_view_multiplier);
  row({"max_incoming", "max-incoming",
       "concurrent downloads per leecher (0 = unlimited)", at_least(0)},
      c.max_incoming);
  row({"upload_slots", "upload-slots", "concurrent uploads per leecher",
       at_least(1)}, c.upload_slots);
  row({"seeder_slots", "seeder-slots", "concurrent uploads per seeder",
       at_least(1)}, c.seeder_slots);
  row({"rechoke_interval", "rechoke-interval", "BitTorrent rechoke period, s",
       kPositive}, c.rechoke_interval);
  row({"optimistic_rounds", "optimistic-rounds",
       "BitTorrent rechokes per optimistic unchoke", at_least(1)},
      c.optimistic_rounds);
  row({"n_bt", "n-bt", "BitTorrent reciprocation slots", at_least(1)}, c.n_bt);
  row({"alpha_r", "alpha-r", "reputation altruism share", at_least(0, 1)},
      c.alpha_r);
  row({"reputation_mode", "reputation", "reputation signal"},
      c.reputation_mode);
  row({"piece_selection", "pieces", "piece selection"}, c.piece_selection);
  row({"tchain_grace", "tchain-grace", "T-Chain endgame key-release timeout, s",
       kPositive}, c.tchain_grace);
  row({"tchain_backlog", "tchain-backlog",
       "T-Chain reciprocation admission cap (0 = unlimited)", at_least(0)},
      c.tchain_backlog);
  row({"attack_collusion", "collusion", "collusion ring (vs T-Chain)"},
      c.attack.collusion);
  row({"attack_whitewashing", "whitewashing",
       "identity resets (vs FairTorrent)"}, c.attack.whitewashing);
  row({"attack_whitewash_interval", "whitewash-interval",
       "seconds between identity resets", kPositive},
      c.attack.whitewash_interval);
  row({"attack_sybil_praise", "sybil-praise",
       "colluders praise each other (vs reputation)"}, c.attack.sybil_praise);
  row({"attack_sybil_interval", "sybil-interval",
       "seconds between fake praise reports", kPositive},
      c.attack.sybil_interval);
  row({"attack_sybil_rate", "sybil-rate", "fake reported bytes/s per colluder",
       at_least(0)}, c.attack.sybil_rate);
  row({"attack_large_view", "large-view",
       "free-riders use the large-view exploit"}, c.attack.large_view);
  for_each_fault_field(c.faults, row);
  row({"linger_time", "linger", "post-completion seeding time, s", at_least(0)},
      c.linger_time);
  row({"max_time", "max-time", "simulated-time cap, s", kPositive}, c.max_time);
  row({"retry_interval", "retry-interval", "idle-slot refill period, s",
       kPositive}, c.retry_interval);
  row({"seed", "seed", "base seed", at_least(0)}, c.seed);
  row({"audit_every", "audit-every",
       "audit cadence in events (0 = off; audit builds only)", at_least(0)},
      c.audit_every);
}

}  // namespace schema
}  // namespace coopnet::sim
