// The swarm: peers + seeder + neighbor graph + transfer machinery.
//
// The Swarm owns the event engine and all peer state, drives arrivals,
// upload-slot filling, transfer completion, piece bookkeeping (including
// rarest-first selection), departure-on-completion, the global reputation
// ledger, the attack timers (whitewashing, sybil praise), and the fault
// layer (lossy/stalling transfers with backoff retries, leecher churn,
// seeder outages; see sim/faults.h). The incentive mechanism itself is
// delegated to an ExchangeStrategy.
//
// Peer state lives in a struct-of-arrays PeerStore (sim/peer_store.h);
// `peer(id)` hands out lightweight handles over it. The store also keeps
// the active-peer registry and the O(1) population byte aggregates the
// metrics samplers read.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "sim/auditor.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "sim/peer.h"
#include "sim/piece_freq_index.h"
#include "sim/strategy.h"
#include "sim/types.h"
#include "util/rng.h"

namespace coopnet::sim {

/// Observer hooks for metrics collection. All references and handles are
/// valid only for the duration of the call.
class SwarmObserver {
 public:
  virtual ~SwarmObserver() = default;
  virtual void on_transfer(const Swarm& swarm, const Transfer& t) {
    (void)swarm;
    (void)t;
  }
  virtual void on_bootstrap(const Swarm& swarm, ConstPeer peer) {
    (void)swarm;
    (void)peer;
  }
  virtual void on_finish(const Swarm& swarm, ConstPeer peer) {
    (void)swarm;
    (void)peer;
  }
};

class Swarm {
 public:
  /// Builds the population, capacities, neighbor graph, and arrival
  /// schedule. `strategy` must implement the configured algorithm.
  Swarm(SwarmConfig config, std::unique_ptr<ExchangeStrategy> strategy);

  /// Strategy and external timers capture the swarm by reference; it must
  /// stay put.
  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Runs until every compliant leecher has finished, or config.max_time.
  /// Equivalent to start() followed by advance_until(config().max_time).
  void run();

  // --- checkpoint lifecycle (see sim/checkpoint.h) -----------------------
  // A checkpointable run replaces run() with
  //   start(); advance_until(t1); ...snapshot...; advance_until(t2); ...
  // and a restored run with
  //   start_restored(); SwarmCheckpoint::restore(); advance_until(...);
  // Chunked advance_until calls execute the identical event stream as one
  // run() (the engine's clock only moves on event execution), so a run
  // with snapshots taken between chunks is byte-identical to one without.
  // Every swarm can be snapshotted: its queued events are already data.

  /// Does nothing. Checkpointing once had to be switched on before the
  /// first event; the call stays only so that code written against that
  /// interface (the stand-alone perfbench/ programs) keeps compiling.
  void enable_checkpoints() {}
  /// Schedules the initial events (arrivals, attack/fault timers, strategy
  /// attach) without executing anything.
  /// run() == start() + advance_until(config().max_time).
  void start();
  /// The post-restore counterpart of start(): only marks the swarm as
  /// run. Strategy attach is NOT called -- attach-time state is restored
  /// by the strategy's checkpoint_load -- and no event is queued: the
  /// queue arrives via SwarmCheckpoint::restore.
  void start_restored();
  /// Runs queued events with time <= deadline (see SimEngine::run_until),
  /// each through dispatch().
  void advance_until(Seconds deadline);
  /// True once the run is over: stop() was raised (every compliant
  /// leecher finished or was permanently lost) or the queue drained.
  /// Reaching config().max_time does not make it true: an active peer's
  /// tick chain keeps events queued past the horizon, so a chunked driver
  /// must also stop once it has advanced to max_time, as run() and
  /// exp::CellRun::run do.
  bool finished() const {
    return engine_.stopped() || engine_.pending() == 0;
  }
  /// Registers an external timer body and returns its sub-id: a
  /// kEvExternalTimer tag with `a` == that id runs `fn` when it fires.
  /// Ids count up from 0 in registration order, so a restored run must
  /// register the same timers in the same order before
  /// SwarmCheckpoint::restore.
  std::uint32_t add_timer(std::function<void()> fn) {
    timers_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(timers_.size() - 1);
  }

  // --- views -------------------------------------------------------------
  const SwarmConfig& config() const { return config_; }
  SimEngine& engine() { return engine_; }
  const SimEngine& engine() const { return engine_; }
  util::Rng& rng() { return rng_; }

  /// Leecher count (ids 0..leechers-1); seeders occupy the ids
  /// [leechers(), leechers() + seeder_count()).
  std::size_t leechers() const { return config_.n_peers; }
  std::size_t seeder_count() const { return config_.seeder_count; }
  /// Id of the first seeder.
  PeerId seeder_id() const { return static_cast<PeerId>(config_.n_peers); }
  bool is_seeder(PeerId id) const { return peer(id).is_seeder(); }
  /// True when `target` can take on another concurrent incoming transfer
  /// (config.max_incoming download-side back-pressure; 0 = unlimited).
  bool accepts_incoming(PeerId target) const;
  /// Handle to one peer's state. Unchecked in release builds (hot path --
  /// strategies call this per neighbor per planning step); debug builds
  /// assert the id is in range.
  Peer peer(PeerId id) {
    assert(id < store_.size() && "Swarm::peer: id out of range");
    return {&store_, id};
  }
  ConstPeer peer(PeerId id) const {
    assert(id < store_.size() && "Swarm::peer: id out of range");
    return {&store_, id};
  }
  /// Every peer slot (leechers then seeders), ascending id, as handles.
  PeerRange<const PeerStore> peers() const {
    return PeerRange<const PeerStore>(&store_);
  }
  std::size_t peer_count() const { return store_.size(); }
  /// The underlying struct-of-arrays storage (read-only; mutation goes
  /// through handles and the Swarm's own machinery).
  const PeerStore& peer_store() const { return store_; }
  /// Ids of exactly the currently active peers, in deterministic but
  /// arbitrary (swap-remove) order: iterate it only for order-insensitive
  /// work. O(active) replacement for filtered full-population scans.
  const std::vector<PeerId>& active_ids() const {
    return store_.active_ids();
  }

  /// Number of compliant leechers that have not yet finished.
  std::size_t compliant_unfinished() const { return compliant_unfinished_; }
  /// That census counted afresh (auditor identity 6).
  std::size_t recount_compliant_unfinished() const;

  // --- strategy-facing API -------------------------------------------------
  /// Active neighbors of `uploader` that (a) need at least one piece the
  /// uploader can offer and (b) accept deliveries per the strategy, in
  /// neighbor order, which is ascending id order (neighbor rows are
  /// strictly ascending, checked at build), so a LedgerCursor can walk the
  /// uploader's ledger row alongside the list. `include_locked_offer`
  /// additionally offers the uploader's locked pieces (T-Chain
  /// forwarding). The list is a scratch buffer the swarm reuses: the next
  /// call overwrites it.
  const std::vector<PeerId>& needy_neighbors(
      PeerId uploader, bool include_locked_offer = false);

  /// The number of hungry leechers (PeerStore::hungry). An origin seeder
  /// offers every piece and its row is every leecher in ascending id order,
  /// so when max_incoming is 0 and the strategy admits_everyone, this is
  /// the length of needy_neighbors(seeder) and hungry_leecher(k) is its
  /// k-th entry: seeder_action draws k uniformly below this count.
  std::size_t hungry_leecher_count() const;
  /// The k-th (0-based, ascending id) hungry leecher; k must be below
  /// hungry_leecher_count().
  PeerId hungry_leecher(std::size_t k) const;

  /// True when `target` is an active leecher that needs >= 1 piece that
  /// `uploader` can offer.
  bool needs_from(PeerId target, PeerId uploader,
                  bool include_locked_offer = false) const;

  /// The piece `uploader` should offer `target` next under the configured
  /// PieceSelection policy (rarest-first with random tie-break by
  /// default), or kNoPiece when nothing is offerable.
  PieceId pick_piece(PeerId uploader, PeerId target,
                     bool include_locked_offer = false);

  /// Starts a piece transfer. Returns false (and does nothing) if the
  /// preconditions fail: uploader needs a free slot and the piece, target
  /// must be active and need the piece. On success the transfer completes
  /// after piece_bytes / (capacity / slots) seconds.
  bool start_transfer(PeerId from, PeerId to, PieceId piece, bool locked);

  /// Converts a delivered-locked (or fresh) piece into a usable one:
  /// updates piece sets, rarity counts, bootstrap/finish bookkeeping.
  /// `source` is the peer that delivered the payload (kNoPeer if unknown);
  /// it attributes the bytes for the susceptibility metric. No-op if the
  /// peer already has the piece usable.
  void make_usable(PeerId id, PieceId piece, PeerId source);

  /// Schedules a near-immediate try-fill for the peer's upload slots (used
  /// after state changes that may enable uploads).
  void request_refill(PeerId id);

  // --- reputation ledger (globally visible, per Section V-A) -------------
  double reputation(PeerId id) const { return reputation_.at(id); }
  void add_reported_upload(PeerId id, double bytes);

  // --- collusion ----------------------------------------------------------
  bool same_collusion_ring(PeerId a, PeerId b) const;

  // --- metrics ------------------------------------------------------------
  void set_observer(SwarmObserver* observer) { observer_ = observer; }
  /// Fault/churn counters and goodput accounting (all zero except the byte
  /// counters when FaultConfig disables every fault).
  const FaultStats& fault_stats() const { return fault_stats_; }
  /// Usable copies of `piece` among active peers (+1 for seeder backing).
  /// Unchecked in release builds (hot path); debug builds assert the piece
  /// id is in range.
  std::uint32_t piece_frequency(PieceId piece) const {
    assert(piece < piece_freq_.pieces() &&
           "Swarm::piece_frequency: piece out of range");
    return piece_freq_.freq(piece);
  }
  /// The rarity index (frequency-bucket bitmasks over piece_frequency).
  const PieceFreqIndex& piece_freq_index() const { return piece_freq_; }
  /// Every piece_frequency counted afresh (auditor identity 5).
  std::vector<std::uint32_t> recount_piece_frequencies() const;
  /// The invariant auditor, or nullptr when this build was not configured
  /// with -DCOOPNET_AUDIT=ON or config.audit_every is 0.
  const InvariantAuditor* auditor() const {
#if COOPNET_AUDIT
    return auditor_.get();
#else
    return nullptr;
#endif
  }
  // O(1): maintained by the store's credit_* methods as exact integer sums
  // of the per-peer counters (metrics sample these every interval).
  Bytes total_uploaded_bytes() const { return store_.byte_totals().uploaded; }
  /// Bytes uploaded by leechers (the seeder's bandwidth is not "users'
  /// upload bandwidth" and is excluded from susceptibility).
  Bytes leecher_uploaded_bytes() const {
    return store_.byte_totals().leecher_uploaded;
  }
  /// Usable bytes free-riders obtained from leechers (susceptibility
  /// numerator).
  Bytes freerider_usable_bytes() const {
    return store_.byte_totals().freerider_usable;
  }

 private:
  /// Serializes/restores the full swarm state (sim/checkpoint.h).
  friend class SwarmCheckpoint;

  void build_population();
  std::vector<Seconds> draw_arrival_times();
  void arrive(PeerId id);
  void depart(PeerId id);
  void try_fill(PeerId id);
  std::optional<UploadAction> seeder_action(PeerId seeder);
  bool start_transfer_attempt(PeerId from, PeerId to, PieceId piece,
                              bool locked, int attempt);
  void complete_transfer(Transfer t);
  void finish_peer(PeerId id);
  void tick(PeerId id, std::uint32_t epoch);
  /// Body of the churn-departure timer: churns `id` out unless its
  /// incarnation moved on (rejoin, finish, departure) since scheduling.
  void churn_check(PeerId id, std::uint32_t epoch);
  void whitewash_timer();
  void sybil_timer();
  void update_unavailable_bit(Peer p, PieceId piece);
  /// Re-inits the rarity index and raises it to recount_piece_frequencies.
  void rebuild_piece_freq();

  /// Executes one popped event: swarm-owned kinds call their handler
  /// directly; strategy and external timers delegate to rebuild_timer /
  /// the add_timer callback.
  void dispatch(const EventTag& tag);

  // --- fault injection (src/sim/faults.h) --------------------------------
  /// Aborts a lossy/stalled transfer, releases both endpoints' slot state,
  /// and queues a backoff retry (or abandons the chain).
  void fail_transfer(Transfer t, bool stalled);
  /// Re-attempts a previously failed transfer; abandons it when the start
  /// preconditions no longer hold.
  void retry_transfer(Transfer t);
  /// Draws the next churn departure time for `id` (churn must be enabled).
  void schedule_churn(PeerId id);
  /// Abrupt mid-download departure; decides rejoin-vs-loss on the spot.
  void churn_out(PeerId id);
  void rejoin(PeerId id);
  void seeder_outage_begin();
  void seeder_outage_end();

  SwarmConfig config_;
  std::unique_ptr<ExchangeStrategy> strategy_;
  SimEngine engine_;
  util::Rng rng_;
  PeerStore store_;  // leechers + seeders (last)
  PieceFreqIndex piece_freq_;  // usable copies among active peers
  std::vector<double> reputation_;         // reported uploaded bytes
  std::size_t compliant_unfinished_ = 0;
  /// Attack-timer work lists, fixed at build time (kinds never change):
  /// the whitewash/sybil timers iterate these instead of scanning the
  /// whole population every interval.
  std::vector<PeerId> freerider_ids_;
  std::vector<PeerId> colluder_ids_;
  FaultStats fault_stats_;
  SwarmObserver* observer_ = nullptr;
  /// kEvExternalTimer bodies, indexed by sub-id (see add_timer).
  std::vector<std::function<void()>> timers_;
  /// The list needy_neighbors returns, reused from call to call.
  std::vector<PeerId> needy_scratch_;
#if COOPNET_AUDIT
  std::unique_ptr<InvariantAuditor> auditor_;
#endif
  bool ran_ = false;
};

}  // namespace coopnet::sim
