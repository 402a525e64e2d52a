#include "sim/swarm.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/event_kinds.h"

// Invariant-audit instrumentation (sim/auditor.h). AUDIT_RECORD feeds the
// auditor's shadow ledger and sits with the state-mutation group it
// describes; AUDIT_CHECK runs a full invariant check and may only appear
// where the global accounting is quiescent (event-handler boundaries).
// Audit-off builds compile both to nothing: the argument expressions are
// never evaluated, so the simulation is bit-for-bit unchanged.
#if COOPNET_AUDIT
#define AUDIT_RECORD(...) \
  do {                    \
    if (auditor_) auditor_->record(__VA_ARGS__); \
  } while (0)
#define AUDIT_CHECK() \
  do {                \
    if (auditor_) auditor_->maybe_check(); \
  } while (0)
#else
#define AUDIT_RECORD(...) \
  do {                    \
  } while (0)
#define AUDIT_CHECK() \
  do {                \
  } while (0)
#endif

namespace coopnet::sim {

namespace {

/// The memoized verdict of offer.can_offer(unavailable(n)) for one
/// (uploader, neighbor) edge. The word scan is the per-neighbor hot cost
/// of interest checks; its verdict only moves when one of the two sets
/// does, so it reruns only when either version counter moved since `m`
/// was filled.
inline bool memo_can_offer(InterestMemo& m, const PieceSet& offer,
                           std::uint32_t offer_ver, const PeerStore& store,
                           PeerId n) {
  const std::uint32_t avail_ver = store.unavail_ver(n);
  if (m.offer_ver != offer_ver || m.avail_ver != avail_ver) {
    m.offer_ver = offer_ver;
    m.avail_ver = avail_ver;
    m.can_offer = offer.can_offer(store.unavailable(n));
  }
  return m.can_offer;
}

}  // namespace

#if COOPNET_AUDIT
namespace {

AuditEvent transfer_event(AuditEvent::Kind kind, const Transfer& t,
                          Seconds now, bool flag = false) {
  AuditEvent e;
  e.kind = kind;
  e.time = now;
  e.from = t.from;
  e.to = t.to;
  e.piece = t.piece;
  e.bytes = t.bytes;
  e.attempt = t.attempt;
  e.from_epoch = t.from_epoch;
  e.to_epoch = t.to_epoch;
  e.flag = flag;
  return e;
}

AuditEvent peer_event(AuditEvent::Kind kind, ConstPeer p, Seconds now) {
  AuditEvent e;
  e.kind = kind;
  e.time = now;
  e.from = p.id();
  e.from_epoch = p.epoch();
  return e;
}

}  // namespace
#endif

Swarm::Swarm(SwarmConfig config, std::unique_ptr<ExchangeStrategy> strategy)
    : config_(std::move(config)),
      strategy_(std::move(strategy)),
      rng_(config_.seed) {
  config_.validate();
  if (!strategy_) throw std::invalid_argument("Swarm: null strategy");
  build_population();
#if COOPNET_AUDIT
  if (config_.audit_every > 0) {
    auditor_ = std::make_unique<InvariantAuditor>(*this, config_.audit_every);
  }
#endif
}

std::vector<Seconds> Swarm::draw_arrival_times() {
  const std::size_t n = config_.n_peers;
  std::vector<Seconds> times(n, 0.0);
  switch (config_.arrivals) {
    case ArrivalProcess::kFlashCrowd:
      for (auto& t : times) {
        t = config_.flash_crowd_window <= 0.0
                ? 0.0
                : rng_.uniform(0.0, config_.flash_crowd_window);
      }
      break;
    case ArrivalProcess::kPoisson: {
      Seconds clock = 0.0;
      for (auto& t : times) {
        clock += rng_.exponential(config_.arrival_rate);
        t = clock;
      }
      rng_.shuffle(times);  // decouple peer index from arrival order
      break;
    }
    case ArrivalProcess::kStaggered: {
      for (std::size_t i = 0; i < n; ++i) {
        times[i] = static_cast<double>(i) / config_.arrival_rate;
      }
      rng_.shuffle(times);
      break;
    }
  }
  return times;
}

void Swarm::build_population() {
  const std::size_t n = config_.n_peers;
  const std::size_t total = n + config_.seeder_count;
  const PieceId pieces = config_.piece_count();

  auto capacities = config_.capacities.sample(n, rng_);
  auto arrivals = draw_arrival_times();

  // Free-riders and strategic clients are drawn uniformly from the
  // population (so their capacity mix matches the compliant peers').
  // All colluding attacks use one ring.
  std::vector<bool> is_fr(n, false);
  std::vector<bool> is_strategic(n, false);
  {
    auto picks = rng_.sample_indices(
        n, config_.free_rider_count() + config_.strategic_count());
    for (std::size_t k = 0; k < picks.size(); ++k) {
      if (k < config_.free_rider_count()) {
        is_fr[picks[k]] = true;
      } else {
        is_strategic[picks[k]] = true;
      }
    }
  }
  const bool ring_attacks =
      config_.attack.collusion || config_.attack.sybil_praise;

  std::vector<bool> large_view(n, false);
  if (config_.attack.large_view) {
    for (std::size_t i = 0; i < n; ++i) large_view[i] = is_fr[i];
  }
  // The graph builder produces leecher-leecher edges plus one seeder slot
  // (id n); additional seeders are spliced in below.
  auto adjacency = build_neighbor_graph(n, config_.graph, large_view, rng_);

  store_.init(total, pieces);
  // Frequencies are bounded by every peer holding a piece plus the seeder
  // backing added below.
  piece_freq_.init(static_cast<PieceId>(pieces),
                   static_cast<std::uint32_t>(total) + 1);
  reputation_.assign(total, 0.0);
  compliant_unfinished_ = 0;
  freerider_ids_.clear();
  colluder_ids_.clear();

  for (std::size_t i = 0; i < total; ++i) {
    Peer p = peer(static_cast<PeerId>(i));
    if (i >= n) {
      p.kind() = PeerKind::kSeeder;
      p.capacity() = config_.seeder_capacity;
      p.upload_slots() = config_.seeder_slots;
      p.pieces().fill();
      p.transferable().fill();
      p.unavailable().fill();
      p.arrival_time() = 0.0;
    } else {
      p.kind() = is_fr[i]          ? PeerKind::kFreeRider
                 : is_strategic[i] ? PeerKind::kStrategic
                                   : PeerKind::kCompliant;
      if (is_fr[i]) freerider_ids_.push_back(static_cast<PeerId>(i));
      if (is_fr[i] && ring_attacks) {
        p.collusion_group() = 0;
        colluder_ids_.push_back(static_cast<PeerId>(i));
      }
      p.capacity() = capacities[i];
      p.upload_slots() = config_.upload_slots;
      p.arrival_time() = arrivals[i];
      // Strategic clients are participants (the run waits for them too);
      // only free-riders are excluded from the completion condition.
      if (!is_fr[i]) ++compliant_unfinished_;
    }
  }
  // Freeze the adjacency into the store's CSR array: leechers keep their
  // generated lists plus the extra seeders spliced in (the builder already
  // appended id n); every seeder knows every leecher.
  {
    std::vector<std::vector<PeerId>> adj_all(total);
    for (std::size_t i = 0; i < n; ++i) {
      adj_all[i] = std::move(adjacency[i]);
      for (std::size_t s = 1; s < config_.seeder_count; ++s) {
        adj_all[i].push_back(static_cast<PeerId>(n + s));
      }
    }
    for (std::size_t s = 0; s < config_.seeder_count; ++s) {
      adj_all[n + s] = adjacency[n];
    }
    store_.build_neighbors(adj_all);
  }
  // The seeders' pieces count toward availability exactly once: rarity
  // should rank what *leechers* hold; every piece is equally seeder-backed.
  for (PieceId piece = 0; piece < piece_freq_.pieces(); ++piece) {
    piece_freq_.increment(piece);
  }
}

void Swarm::run() {
  start();
  advance_until(config_.max_time);
}

void Swarm::advance_until(Seconds deadline) {
  engine_.run_until(deadline, [this](const EventTag& tag) { dispatch(tag); });
}

void Swarm::start() {
  if (ran_) throw std::logic_error("Swarm::start: already ran");
  ran_ = true;

  strategy_->attach(*this);

  // Seeders are live from t = 0; leechers arrive per the arrival process.
  for (std::size_t s = 0; s < seeder_count(); ++s) {
    const PeerId id = static_cast<PeerId>(leechers() + s);
    engine_.schedule_at(0.0, make_peer_tag(kEvArrive, id));
  }
  for (std::size_t i = 0; i < leechers(); ++i) {
    const PeerId id = static_cast<PeerId>(i);
    engine_.schedule_at(store_.arrival_time(id), make_peer_tag(kEvArrive, id));
  }

  if (config_.attack.whitewashing) {
    engine_.schedule(config_.attack.whitewash_interval,
                     make_kind_tag(kEvWhitewash));
  }
  if (config_.attack.sybil_praise) {
    engine_.schedule(config_.attack.sybil_interval, make_kind_tag(kEvSybil));
  }
  if (config_.faults.seeder_outages_enabled()) {
    engine_.schedule(config_.faults.seeder_uptime,
                     make_kind_tag(kEvSeederOutageBegin));
  }
}

void Swarm::start_restored() {
  if (ran_) throw std::logic_error("Swarm::start_restored: already ran");
  ran_ = true;
}

void Swarm::arrive(PeerId id) {
  Peer p = peer(id);
  p.set_state(PeerState::kActive);
  AUDIT_RECORD(peer_event(AuditEvent::Kind::kArrive, p, engine_.now()));
  strategy_->on_peer_activated(*this, id);
  try_fill(id);
  const std::uint32_t epoch = p.epoch();
  engine_.schedule(config_.retry_interval, make_epoch_tag(kEvTick, id, epoch));
  if (config_.faults.churn_enabled() && !p.is_seeder()) schedule_churn(id);
  AUDIT_CHECK();
}

void Swarm::tick(PeerId id, std::uint32_t epoch) {
  // Stop ticking after departure. The epoch guard kills the old tick chain
  // when a peer churns out: rejoin starts a fresh chain, so there is never
  // more than one live chain per peer.
  if (store_.state(id) != PeerState::kActive || store_.epoch(id) != epoch) {
    return;
  }
  try_fill(id);
  engine_.schedule(config_.retry_interval, make_epoch_tag(kEvTick, id, epoch));
}

void Swarm::request_refill(PeerId id) {
  // A tiny delay batches cascading refills triggered within one event.
  engine_.schedule(1e-6, make_peer_tag(kEvTryFill, id));
}

void Swarm::try_fill(PeerId id) {
  Peer p = peer(id);
  if (!p.active()) return;
  while (p.free_slots() > 0) {
    std::optional<UploadAction> action;
    if (p.is_free_rider()) {
      break;  // free-riders never upload, not even after finishing
    } else if (p.is_seeder() || p.finished()) {
      // Origin seeders and lingering finished peers seed identically.
      action = seeder_action(id);
    } else {
      action = strategy_->next_upload(*this, id);
    }
    if (!action) break;
    if (!start_transfer(id, action->to, action->piece, action->locked)) {
      // The strategy proposed a stale action; avoid a hot loop.
      break;
    }
  }
  AUDIT_CHECK();
}

std::optional<UploadAction> Swarm::seeder_action(PeerId seeder) {
  // Seeder policy: uniformly random neighbor that needs something, rarest
  // piece first. In T-Chain deliveries are locked (chains start here).
  auto needy = needy_neighbors(seeder, /*include_locked_offer=*/false);
  if (needy.empty()) return std::nullopt;
  const PeerId to = needy[rng_.uniform_u64(needy.size())];
  const PieceId piece = pick_piece(seeder, to, false);
  if (piece == kNoPiece) return std::nullopt;
  return UploadAction{to, piece, strategy_->seeder_delivers_locked()};
}

std::vector<PeerId> Swarm::needy_neighbors(PeerId uploader,
                                           bool include_locked_offer) {
  Peer up = peer(uploader);
  const PieceSet& offer =
      include_locked_offer ? up.transferable() : up.pieces();
  const std::uint32_t offer_ver =
      include_locked_offer ? up.transferable_ver() : up.pieces_ver();
  InterestMemo* memo =
      store_.memo_lane(include_locked_offer ? 1 : 0, uploader);
  const NeighborRange nbrs = up.neighbors();
  std::vector<PeerId> out;
  out.reserve(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const PeerId n = nbrs[i];
    if (store_.state(n) != PeerState::kActive ||
        store_.kind(n) == PeerKind::kSeeder) {
      continue;
    }
    if (!accepts_incoming(n)) continue;
    // Filter order: active -> accepts_incoming -> can_offer ->
    // accepts_delivery.
    if (!memo_can_offer(memo[i], offer, offer_ver, store_, n)) continue;
    if (!strategy_->accepts_delivery(*this, n)) continue;
    out.push_back(n);
  }
  return out;
}

bool Swarm::needs_from(PeerId target, PeerId uploader,
                       bool include_locked_offer) const {
  ConstPeer up = peer(uploader);
  ConstPeer q = peer(target);
  if (!q.active() || q.is_seeder()) return false;
  const PieceSet& offer =
      include_locked_offer ? up.transferable() : up.pieces();
  return offer.can_offer(q.unavailable());
}

bool Swarm::neighbor_needs_from(PeerId uploader, std::size_t index,
                                bool include_locked_offer) {
  assert(index < store_.neighbor_count(uploader) &&
         "neighbor_needs_from: index out of range");
  const PeerId n = store_.neighbors_begin(uploader)[index];
  if (store_.state(n) != PeerState::kActive ||
      store_.kind(n) == PeerKind::kSeeder) {
    return false;
  }
  Peer up = peer(uploader);
  const PieceSet& offer =
      include_locked_offer ? up.transferable() : up.pieces();
  const std::uint32_t offer_ver =
      include_locked_offer ? up.transferable_ver() : up.pieces_ver();
  return memo_can_offer(
      store_.memo_lane(include_locked_offer ? 1 : 0, uploader)[index],
      offer, offer_ver, store_, n);
}

PieceId Swarm::pick_piece(PeerId uploader, PeerId target,
                          bool include_locked_offer) {
  ConstPeer up = peer(uploader);
  ConstPeer q = peer(target);
  const PieceSet& offer =
      include_locked_offer ? up.transferable() : up.pieces();

  switch (config_.piece_selection) {
    case PieceSelection::kRarestFirst:
      // Frequency-bucketed walk; reproduces the seed full scan's reservoir
      // tie-break and RNG draw sequence exactly (see PieceFreqIndex).
      return piece_freq_.pick_rarest(offer, q.unavailable(), rng_);
    case PieceSelection::kRandom: {
      PieceId chosen = kNoPiece;
      std::uint32_t seen = 0;
      offer.for_each_offerable(q.unavailable(), [&](PieceId piece) {
        ++seen;  // reservoir sampling: uniform over offerable pieces
        if (rng_.uniform_u64(seen) == 0) chosen = piece;
      });
      return chosen;
    }
    case PieceSelection::kSequential: {
      PieceId lowest = kNoPiece;
      offer.for_each_offerable(q.unavailable(), [&](PieceId piece) {
        if (lowest == kNoPiece) lowest = piece;  // bits iterate ascending
      });
      return lowest;
    }
  }
  throw std::logic_error("pick_piece: unknown policy");
}

bool Swarm::start_transfer(PeerId from, PeerId to, PieceId piece,
                           bool locked) {
  return start_transfer_attempt(from, to, piece, locked, /*attempt=*/0);
}

bool Swarm::start_transfer_attempt(PeerId from, PeerId to, PieceId piece,
                                   bool locked, int attempt) {
  Peer up = peer(from);
  Peer down = peer(to);
  if (from == to || piece == kNoPiece) return false;
  if (!up.active() || up.free_slots() <= 0) return false;
  if (!down.active() || down.is_seeder()) return false;
  if (!accepts_incoming(to)) return false;
  const PieceSet& offer = up.transferable();  // usable or forwardable payload
  if (!offer.has(piece)) return false;
  if (down.unavailable().has(piece)) return false;

  const double rate = up.capacity() / static_cast<double>(up.upload_slots());
  const Seconds duration =
      static_cast<double>(config_.piece_bytes) / rate;

  ++up.busy_slots();
  ++down.incoming_count();
  down.pending().add(piece);
  down.unavailable().add(piece);
  down.bump_unavail_ver();

  Transfer t;
  t.from = from;
  t.to = to;
  t.piece = piece;
  t.start = engine_.now();
  t.end = engine_.now() + duration;
  t.bytes = config_.piece_bytes;
  t.locked = locked;
  t.attempt = attempt;
  t.from_epoch = up.epoch();
  t.to_epoch = down.epoch();
  fault_stats_.offered_bytes += t.bytes;
  AUDIT_RECORD(
      transfer_event(AuditEvent::Kind::kTransferStart, t, engine_.now()));

  // Fault draw. Guarded so that a fault-free config performs no Rng draws
  // and schedules exactly the events the fault-free simulator would.
  const FaultConfig& faults = config_.faults;
  bool doomed = false;
  if (faults.transfer_faults_enabled()) {
    if (faults.transfer_loss_rate > 0.0 &&
        rng_.bernoulli(faults.transfer_loss_rate)) {
      // The connection drops partway through; the failure point is uniform
      // over the transfer's duration.
      const Seconds fail_after = rng_.uniform01() * duration;
      engine_.schedule(fail_after, make_transfer_tag(kEvFailLoss, t));
      doomed = true;
    } else if (faults.transfer_stall_rate > 0.0 &&
               rng_.bernoulli(faults.transfer_stall_rate)) {
      // The transfer hangs; the slot stays occupied until the timeout.
      engine_.schedule(faults.stall_timeout,
                       make_transfer_tag(kEvFailStall, t));
      doomed = true;
    }
  }
  if (!doomed) {
    engine_.schedule(duration, make_transfer_tag(kEvCompleteTransfer, t));
  }
  strategy_->on_upload_started(*this, t);
  return true;
}

void Swarm::complete_transfer(Transfer t) {
  Peer up = peer(t.from);
  Peer down = peer(t.to);
  // Epoch guards: a churned endpoint already zeroed its slot counters and
  // cleared its pending reservations, so this event must not touch them.
  const bool up_current = up.epoch() == t.from_epoch;
  const bool down_current = down.epoch() == t.to_epoch;
  if (up_current) --up.busy_slots();
  if (down_current) {
    --down.incoming_count();
    down.pending().remove(t.piece);
    update_unavailable_bit(down, t.piece);
  }

  if (!up_current) {
    // The uploader vanished mid-transfer: the payload never finished
    // arriving. No retry -- the source is gone; the receiver re-requests
    // the piece through the normal machinery.
    AUDIT_RECORD(transfer_event(AuditEvent::Kind::kTransferEnd, t,
                                engine_.now(), /*flag=*/false));
    ++fault_stats_.uploader_vanished;
    ++fault_stats_.transfers_abandoned;
    strategy_->on_transfer_failed(*this, t, /*will_retry=*/false);
    if (down_current && down.active()) request_refill(t.to);
    AUDIT_CHECK();
    return;
  }

  up.credit_uploaded(t.bytes);  // slot time was spent either way
  const bool delivered = down.state() == PeerState::kActive && down_current;
  AUDIT_RECORD(transfer_event(AuditEvent::Kind::kTransferEnd, t,
                              engine_.now(), delivered));
  if (delivered) {
    fault_stats_.goodput_bytes += t.bytes;
    if (t.attempt > 0) ++fault_stats_.retry_successes;
    // Byte accounting and exchange bookkeeping.
    down.credit_downloaded_raw(t.bytes);
    down.received_from()[t.from] += t.bytes;
    down.round_received()[t.from] += t.bytes;
    // FairTorrent-style deficits, in piece units, kept for all algorithms.
    up.deficit()[t.to] += 1;
    down.deficit()[t.from] -= 1;
    // Real uploads are globally visible (Section V-A's reputation setup).
    add_reported_upload(t.from, static_cast<double>(t.bytes));

    // Bootstrapping counts the first *delivered* piece (Section IV-B's
    // model): a T-Chain newcomer is bootstrapped when the payload arrives,
    // before it reciprocates for the key.
    if (!down.bootstrapped()) {
      down.bootstrap_time() = engine_.now();
      if (observer_ != nullptr) observer_->on_bootstrap(*this, down);
    }

    if (t.locked) {
      down.locked().add(t.piece);
      down.unavailable().add(t.piece);
      down.transferable().add(t.piece);
      down.bump_unavail_ver();
      down.bump_transferable_ver();
    } else {
      make_usable(t.to, t.piece, t.from);
    }
  }

  // The strategy always observes completion (an uploader fulfilling a
  // T-Chain obligation did the work even if the receiver just departed);
  // it checks the receiver's state before receiver-side bookkeeping.
  strategy_->on_delivered(*this, t);
  if (delivered && observer_ != nullptr) observer_->on_transfer(*this, t);

  try_fill(t.from);
  // Receiving may enable reciprocation or forwarding on the receiver side.
  if (delivered && peer(t.to).active()) request_refill(t.to);
  AUDIT_CHECK();
}

void Swarm::make_usable(PeerId id, PieceId piece, PeerId source) {
  Peer p = peer(id);
  if (p.pieces().has(piece)) return;
  p.locked().remove(piece);
  p.pieces().add(piece);
  p.unavailable().add(piece);
  p.transferable().add(piece);
  p.bump_pieces_ver();
  p.bump_unavail_ver();
  p.bump_transferable_ver();
  // piece_freq_ counts usable copies among *active* peers; a churned peer's
  // copies were subtracted on departure and are re-added on rejoin.
  if (p.active()) piece_freq_.increment(piece);
  p.credit_downloaded_usable(config_.piece_bytes);
  if (source != kNoPeer && !peer(source).is_seeder()) {
    p.credit_usable_from_leechers(config_.piece_bytes);
  }

  if (!p.bootstrapped()) {
    p.bootstrap_time() = engine_.now();
    if (observer_ != nullptr) observer_->on_bootstrap(*this, p);
  }
  // A peer unlocked into completeness while churned finishes on rejoin.
  if (p.pieces().complete() && p.active()) finish_peer(id);
}

void Swarm::finish_peer(PeerId id) {
  Peer p = peer(id);
  if (p.finished() || p.is_seeder()) return;
  p.finish_time() = engine_.now();
  if (observer_ != nullptr) observer_->on_finish(*this, p);
  const bool last_compliant =
      !p.is_free_rider() && --compliant_unfinished_ == 0;
  AUDIT_RECORD(peer_event(AuditEvent::Kind::kFinish, p, engine_.now()));
  if (config_.linger_time > 0.0 && !last_compliant) {
    // Stay and seed for a while before leaving.
    engine_.schedule(config_.linger_time, make_peer_tag(kEvLingerDepart, id));
    request_refill(id);
  } else {
    depart(id);
  }
  if (last_compliant) engine_.stop();
}

void Swarm::depart(PeerId id) {
  Peer p = peer(id);
  if (p.state() == PeerState::kLeft || p.is_seeder()) return;
  p.set_state(PeerState::kLeft);
  // Departing copies stop counting toward availability.
  p.pieces().for_each([&](PieceId piece) { piece_freq_.decrement(piece); });
  AUDIT_RECORD(peer_event(AuditEvent::Kind::kDepart, p, engine_.now()));
  strategy_->on_peer_left(*this, id);
  AUDIT_CHECK();
}

// --- fault injection -------------------------------------------------------

void Swarm::fail_transfer(Transfer t, bool stalled) {
  Peer up = peer(t.from);
  Peer down = peer(t.to);
  if (stalled) {
    ++fault_stats_.transfer_stalls;
  } else {
    ++fault_stats_.transfer_failures;
  }

  const bool up_current = up.epoch() == t.from_epoch;
  const bool down_current = down.epoch() == t.to_epoch;
  // No byte credit for the uploader: the payload never made it across, and
  // crediting it would inflate the u/d fairness statistics. The wasted slot
  // time shows up as offered bytes without matching goodput.
  const bool endpoints_ok = up_current && up.active() && down_current &&
                            down.active() && !down.finished();
  const bool will_retry =
      endpoints_ok && t.attempt < config_.faults.max_retries;
  if (up_current) --up.busy_slots();
  if (down_current) {
    --down.incoming_count();
    // A scheduled retry keeps the receiver's piece reservation through the
    // backoff window, so nobody duplicates the piece in the meantime;
    // retry_transfer releases it before re-attempting.
    if (!will_retry) {
      down.pending().remove(t.piece);
      update_unavailable_bit(down, t.piece);
    }
  }
  AUDIT_RECORD(transfer_event(AuditEvent::Kind::kTransferFail, t,
                              engine_.now(), will_retry));
  if (will_retry) {
    ++fault_stats_.retries_scheduled;
    strategy_->on_transfer_failed(*this, t, /*will_retry=*/true);
    engine_.schedule(config_.faults.backoff_for(t.attempt),
                     make_transfer_tag(kEvRetryTransfer, t));
  } else {
    ++fault_stats_.transfers_abandoned;
    strategy_->on_transfer_failed(*this, t, /*will_retry=*/false);
  }

  // The freed slot (and the receiver's freed reservation) can be reused
  // right away.
  if (up_current && up.active()) try_fill(t.from);
  if (down_current && down.active()) request_refill(t.to);
  AUDIT_CHECK();
}

void Swarm::retry_transfer(Transfer t) {
  Peer up = peer(t.from);
  Peer down = peer(t.to);
  // Release the reservation held through the backoff (churn already cleared
  // it if the receiver's epoch moved on). Within this event nothing can
  // grab the piece before the re-attempt below.
  if (down.epoch() == t.to_epoch) {
    down.pending().remove(t.piece);
    update_unavailable_bit(down, t.piece);
  }
  AUDIT_RECORD(transfer_event(AuditEvent::Kind::kRetry, t, engine_.now()));
  const bool still_wanted = down.epoch() == t.to_epoch && down.active() &&
                            !down.unavailable().has(t.piece);
  const bool source_ok = up.epoch() == t.from_epoch && up.active() &&
                         up.transferable().has(t.piece);
  if (still_wanted && source_ok &&
      start_transfer_attempt(t.from, t.to, t.piece, t.locked,
                             t.attempt + 1)) {
    AUDIT_CHECK();
    return;
  }
  // The retry chain ends here: tell the strategy so in-flight bookkeeping
  // (e.g. a T-Chain reciprocation duty) is released, and classify the
  // outcome -- a piece the receiver no longer needs is a moot retry, not an
  // abandonment.
  if (still_wanted) {
    ++fault_stats_.transfers_abandoned;
  } else {
    ++fault_stats_.retries_dropped;
  }
  strategy_->on_transfer_failed(*this, t, /*will_retry=*/false);
  AUDIT_CHECK();
}

void Swarm::schedule_churn(PeerId id) {
  const Seconds dt = rng_.exponential(config_.faults.churn_rate);
  const std::uint32_t epoch = store_.epoch(id);
  engine_.schedule(dt, make_epoch_tag(kEvChurnCheck, id, epoch));
}

void Swarm::churn_check(PeerId id, std::uint32_t epoch) {
  ConstPeer p = peer(id);
  // Lingering finished peers depart on their own schedule; churning them
  // would only re-run departure bookkeeping.
  if (p.epoch() != epoch || !p.active() || p.finished()) return;
  churn_out(id);
}

void Swarm::churn_out(PeerId id) {
  Peer p = peer(id);
  ++fault_stats_.churn_departures;
  // Invalidate every event that captured the old incarnation: in-flight
  // transfer completions/failures and the tick chain become no-ops.
  p.bump_epoch();
  p.busy_slots() = 0;
  p.incoming_count() = 0;
  // Clear in-flight download reservations so the pieces can be re-requested
  // (now by someone else, or after a rejoin by this peer).
  for (PieceId piece = 0; piece < p.pending().size(); ++piece) {
    if (p.pending().has(piece)) {
      p.pending().remove(piece);
      update_unavailable_bit(p, piece);
    }
  }
  p.set_state(PeerState::kChurned);
  p.pieces().for_each([&](PieceId piece) { piece_freq_.decrement(piece); });
  AUDIT_RECORD(peer_event(AuditEvent::Kind::kChurnOut, p, engine_.now()));

  const bool will_rejoin = rng_.bernoulli(config_.faults.rejoin_probability);
  strategy_->on_peer_departed(*this, id, will_rejoin);
  if (will_rejoin) {
    const Seconds downtime =
        config_.faults.mean_downtime <= 0.0
            ? 0.0
            : rng_.exponential(1.0 / config_.faults.mean_downtime);
    engine_.schedule(downtime, make_peer_tag(kEvRejoin, id));
    AUDIT_CHECK();
    return;
  }
  ++fault_stats_.churn_losses;
  p.set_state(PeerState::kLeft);
  // A permanently lost compliant peer will never finish; without this the
  // run would idle until max_time waiting for it.
  if (!p.is_free_rider() && !p.finished() &&
      --compliant_unfinished_ == 0) {
    engine_.stop();
  }
  AUDIT_CHECK();
}

void Swarm::rejoin(PeerId id) {
  Peer p = peer(id);
  ++fault_stats_.churn_rejoins;
  p.set_state(PeerState::kActive);
  // The piece set survived the downtime; its copies count again.
  p.pieces().for_each([&](PieceId piece) { piece_freq_.increment(piece); });
  AUDIT_RECORD(peer_event(AuditEvent::Kind::kRejoin, p, engine_.now()));
  strategy_->on_peer_rejoined(*this, id);
  // Unlock cascades may have completed this peer's file while it was gone.
  if (p.pieces().complete() && !p.finished()) {
    finish_peer(id);
    AUDIT_CHECK();
    return;
  }
  try_fill(id);
  const std::uint32_t epoch = p.epoch();
  engine_.schedule(config_.retry_interval, make_epoch_tag(kEvTick, id, epoch));
  schedule_churn(id);
  AUDIT_CHECK();
}

void Swarm::seeder_outage_begin() {
  ++fault_stats_.seeder_outages;
  for (std::size_t s = 0; s < seeder_count(); ++s) {
    Peer p = peer(static_cast<PeerId>(leechers() + s));
    if (!p.active()) continue;
    p.bump_epoch();  // in-flight uploads from the seeder die
    p.busy_slots() = 0;
    p.set_state(PeerState::kChurned);
    AUDIT_RECORD(peer_event(AuditEvent::Kind::kSeederDown, p, engine_.now()));
    strategy_->on_peer_departed(*this, p.id(), /*will_rejoin=*/true);
  }
  engine_.schedule(config_.faults.seeder_downtime,
                   make_kind_tag(kEvSeederOutageEnd));
  AUDIT_CHECK();
}

void Swarm::seeder_outage_end() {
  for (std::size_t s = 0; s < seeder_count(); ++s) {
    Peer p = peer(static_cast<PeerId>(leechers() + s));
    if (p.state() != PeerState::kChurned) continue;
    p.set_state(PeerState::kActive);
    AUDIT_RECORD(peer_event(AuditEvent::Kind::kSeederUp, p, engine_.now()));
    strategy_->on_peer_rejoined(*this, p.id());
    try_fill(p.id());
    const std::uint32_t epoch = p.epoch();
    const PeerId id = p.id();
    engine_.schedule(config_.retry_interval,
                     make_epoch_tag(kEvTick, id, epoch));
  }
  if (engine_.now() + config_.faults.seeder_uptime <= config_.max_time) {
    engine_.schedule(config_.faults.seeder_uptime,
                     make_kind_tag(kEvSeederOutageBegin));
  }
}

void Swarm::update_unavailable_bit(Peer p, PieceId piece) {
  if (!p.pieces().has(piece) && !p.locked().has(piece) &&
      !p.pending().has(piece)) {
    p.unavailable().remove(piece);
    p.bump_unavail_ver();
  }
}

void Swarm::add_reported_upload(PeerId id, double bytes) {
  if (bytes < 0.0) {
    throw std::invalid_argument("add_reported_upload: negative bytes");
  }
  reputation_.at(id) += bytes;
}

bool Swarm::accepts_incoming(PeerId target) const {
  if (config_.max_incoming == 0) return true;
  return store_.incoming_count(target) < config_.max_incoming;
}

bool Swarm::same_collusion_ring(PeerId a, PeerId b) const {
  const int ga = store_.collusion_group(a);
  return ga >= 0 && ga == store_.collusion_group(b);
}

void Swarm::whitewash_timer() {
  // Each whitewashing free-rider discards its identity: every other peer's
  // per-identity memory of it (deficits, receipt history) is reset, as if a
  // brand-new peer had joined from the same address. The outer loop walks
  // the fixed free-rider list instead of scanning the population; the
  // inner loop must stay full-range because departed peers' receipt maps
  // still feed EigenTrust's recompute.
  for (const PeerId fr : freerider_ids_) {
    if (store_.state(fr) != PeerState::kActive) continue;
    for (PeerId q = 0; q < store_.size(); ++q) {
      if (q == fr) continue;
      store_.deficit(q).erase(fr);
      store_.received_from(q).erase(fr);
      store_.round_received(q).erase(fr);
      store_.prev_round_received(q).erase(fr);
    }
    reputation_.at(fr) = 0.0;  // the new identity has no history at all
  }
  if (engine_.now() + config_.attack.whitewash_interval <= config_.max_time) {
    engine_.schedule(config_.attack.whitewash_interval,
                     make_kind_tag(kEvWhitewash));
  }
}

void Swarm::sybil_timer() {
  // Colluders report fictitious uploads for one another, inflating their
  // globally visible reputation scores (Section IV-C's "false praise").
  // Ring membership is fixed at build time, so the timer walks the
  // colluder list instead of scanning the population.
  for (const PeerId id : colluder_ids_) {
    if (store_.state(id) == PeerState::kActive) {
      reputation_.at(id) +=
          config_.attack.sybil_rate * config_.attack.sybil_interval;
    }
  }
  if (engine_.now() + config_.attack.sybil_interval <= config_.max_time) {
    engine_.schedule(config_.attack.sybil_interval, make_kind_tag(kEvSybil));
  }
}

void Swarm::dispatch(const EventTag& tag) {
  switch (tag.kind) {
    case kEvArrive:
      arrive(tag.a);
      break;
    case kEvTick:
      tick(tag.a, tag.b);
      break;
    case kEvTryFill:
      try_fill(tag.a);
      break;
    case kEvCompleteTransfer:
      complete_transfer(transfer_from_tag(tag));
      break;
    case kEvFailLoss:
      fail_transfer(transfer_from_tag(tag), /*stalled=*/false);
      break;
    case kEvFailStall:
      fail_transfer(transfer_from_tag(tag), /*stalled=*/true);
      break;
    case kEvRetryTransfer:
      retry_transfer(transfer_from_tag(tag));
      break;
    case kEvLingerDepart:
      depart(tag.a);
      break;
    case kEvChurnCheck:
      churn_check(tag.a, tag.b);
      break;
    case kEvRejoin:
      rejoin(tag.a);
      break;
    case kEvSeederOutageBegin:
      seeder_outage_begin();
      break;
    case kEvSeederOutageEnd:
      seeder_outage_end();
      break;
    case kEvWhitewash:
      whitewash_timer();
      break;
    case kEvSybil:
      sybil_timer();
      break;
    case kEvStrategyTimer:
      strategy_->rebuild_timer(*this, tag.a)();
      break;
    case kEvExternalTimer:
      if (tag.a >= timers_.size()) {
        throw std::logic_error(
            "Swarm::dispatch: external timer sub-id " +
            std::to_string(tag.a) + " was never registered (" +
            std::to_string(timers_.size()) + " timers; see add_timer)");
      }
      timers_[tag.a]();
      break;
    default:
      throw std::logic_error("Swarm::dispatch: unknown event kind " +
                             std::to_string(tag.kind));
  }
}

}  // namespace coopnet::sim
