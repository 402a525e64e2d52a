#include "strategy/tchain.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void TChainStrategy::attach(sim::Swarm& swarm) {
  max_backlog_ = swarm.config().tchain_backlog == 0
                     ? std::numeric_limits<std::size_t>::max()
                     : static_cast<std::size_t>(swarm.config().tchain_backlog);
  grace_ = swarm.config().tchain_grace;
  backlog_count_.assign(swarm.peer_count(), 0);
  swarm.engine().schedule_tagged(grace_ / 2.0,
                                 sim::make_timer_tag(sim::kEvStrategyTimer, 0),
                                 [this, &swarm] { grace_scan(swarm); });
}

std::size_t TChainStrategy::backlog(sim::PeerId id) const {
  if (id < backlog_count_.size()) {
#ifndef NDEBUG
    auto dbg = state_.find(id);
    const std::size_t slow =
        dbg == state_.end()
            ? 0
            : dbg->second.obligations.size() + dbg->second.in_flight.size();
    assert(slow == backlog_count_[id] &&
           "TChainStrategy: backlog counter out of sync");
#endif
    return backlog_count_[id];
  }
  auto it = state_.find(id);
  if (it == state_.end()) return 0;
  return it->second.obligations.size() + it->second.in_flight.size();
}

bool TChainStrategy::accepts_delivery(const sim::Swarm& swarm,
                                      sim::PeerId target) const {
  const sim::ConstPeer q = swarm.peer(target);
  // Colluding free-riders fake-fulfill instantly, so their queue is always
  // empty from the protocol's point of view; everyone else (compliant peers
  // AND plain free-riders, whose queue never drains) is capped. This cap is
  // what makes a compliant peer's download rate track its upload capacity
  // and what starves non-colluding free-riders after a handful of pieces.
  if (q.is_free_rider() && q.collusion_group() >= 0) return true;
  // Count queued duties, duties being discharged, and deliveries already
  // in flight toward this peer -- each in-flight piece becomes a duty on
  // arrival, so admission control must see it.
  return backlog(target) + q.pending().count() < max_backlog_;
}

bool TChainStrategy::can_deliver(const sim::Swarm& swarm, sim::PeerId target,
                                 sim::PieceId piece) const {
  const sim::ConstPeer q = swarm.peer(target);
  if (!q.active() || q.is_seeder()) return false;
  if (q.unavailable().test(piece)) return false;
  return accepts_delivery(swarm, target);
}

std::optional<sim::UploadAction> TChainStrategy::plan_obligation(
    sim::Swarm& swarm, sim::PeerId p, const Obligation& ob) {
  // Preferred: the designator's suggestion (direct reciprocity when the
  // suggestion is the designator itself).
  if (ob.suggested_target != sim::kNoPeer && ob.suggested_target != p) {
    if (ob.suggested_target == ob.designator) {
      // Direct reciprocity repays with any piece the designator needs.
      const sim::PieceId piece = swarm.pick_piece(
          p, ob.designator, /*include_locked_offer=*/true);
      if (piece != sim::kNoPiece &&
          can_deliver(swarm, ob.designator, piece)) {
        return sim::UploadAction{ob.designator, piece, /*locked=*/true};
      }
    } else if (can_deliver(swarm, ob.suggested_target, ob.piece)) {
      // Indirect reciprocity: forward the received payload.
      return sim::UploadAction{ob.suggested_target, ob.piece,
                               /*locked=*/true};
    }
  }
  // Any neighbor that needs the received piece.
  const sim::Peer up = swarm.peer(p);
  std::vector<sim::PeerId> candidates;
  for (sim::PeerId n : up.neighbors()) {
    if (n != ob.designator && can_deliver(swarm, n, ob.piece)) {
      candidates.push_back(n);
    }
  }
  if (!candidates.empty()) {
    const sim::PeerId to =
        candidates[swarm.rng().uniform_u64(candidates.size())];
    return sim::UploadAction{to, ob.piece, /*locked=*/true};
  }
  // Generalized reciprocation: any transferable piece to any needy
  // neighbor ("users can reciprocate uploads by uploading a piece to any
  // user", Section III-A).
  auto needy = swarm.needy_neighbors(p, /*include_locked_offer=*/true);
  if (!needy.empty()) {
    const sim::PeerId to = needy[swarm.rng().uniform_u64(needy.size())];
    const sim::PieceId piece =
        swarm.pick_piece(p, to, /*include_locked_offer=*/true);
    if (piece != sim::kNoPiece) {
      return sim::UploadAction{to, piece, /*locked=*/true};
    }
  }
  return std::nullopt;
}

std::optional<sim::UploadAction> TChainStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  pending_plan_ = PendingPlan{};
  auto it = state_.find(uploader);
  if (it != state_.end()) {
    // 1. Discharge the oldest feasible obligation.
    for (const Obligation& ob : it->second.obligations) {
      if (auto action = plan_obligation(swarm, uploader, ob)) {
        pending_plan_ = {uploader, action->to, action->piece, ob.piece, true};
        return action;
      }
    }
  }
  // 2. Opportunistic seeding: initiate a fresh chain from usable pieces.
  auto needy = swarm.needy_neighbors(uploader, /*include_locked_offer=*/false);
  if (needy.empty()) return std::nullopt;
  const sim::PeerId to = needy[swarm.rng().uniform_u64(needy.size())];
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  pending_plan_ = {uploader, to, piece, sim::kNoPiece, true};
  return sim::UploadAction{to, piece, /*locked=*/true};
}

void TChainStrategy::drop_obligation(sim::PeerId p, sim::PieceId piece) {
  auto it = state_.find(p);
  if (it == state_.end()) return;
  auto& q = it->second.obligations;
  for (auto ob = q.begin(); ob != q.end(); ++ob) {
    if (ob->piece == piece) {
      q.erase(ob);
      dec_backlog(p);
      return;
    }
  }
}

void TChainStrategy::on_upload_started(sim::Swarm& swarm,
                                       const sim::Transfer& t) {
  (void)swarm;
  if (!pending_plan_.valid || pending_plan_.from != t.from ||
      pending_plan_.to != t.to || pending_plan_.piece != t.piece) {
    return;  // a seeder upload or an unrelated start
  }
  if (pending_plan_.unlocks != sim::kNoPiece) {
    // Commit: this transfer discharges an obligation. Move it from the
    // queue into the in-flight map keyed by the outgoing transfer.
    PeerState& st = state_[t.from];
    InFlightDuty duty;
    duty.unlocks = pending_plan_.unlocks;
    for (const Obligation& ob : st.obligations) {
      if (ob.piece == pending_plan_.unlocks) {
        duty.designator = ob.designator;
        duty.suggested_target = ob.suggested_target;
        break;
      }
    }
    if (st.in_flight.insert_or_assign(key(t.to, t.piece), duty).second) {
      inc_backlog(t.from);
    }
    drop_obligation(t.from, pending_plan_.unlocks);
  }
  pending_plan_ = PendingPlan{};
}

void TChainStrategy::on_transfer_failed(sim::Swarm& swarm,
                                        const sim::Transfer& t,
                                        bool will_retry) {
  // While a retry is queued the duty stays registered under the same
  // (target, piece) key -- the retried transfer's completion discharges it.
  if (will_retry) return;
  auto sit = state_.find(t.from);
  if (sit == state_.end()) return;
  auto inflight = sit->second.in_flight.find(key(t.to, t.piece));
  if (inflight == sit->second.in_flight.end()) return;
  const InFlightDuty duty = inflight->second;
  sit->second.in_flight.erase(inflight);
  // The reciprocation never happened: requeue the duty (fresh timestamp,
  // so the grace clock restarts) and let next_upload find another route.
  // backlog_count_ is unchanged: one in-flight entry out, one duty in.
  sit->second.obligations.push_back(Obligation{
      duty.unlocks, duty.designator, duty.suggested_target,
      swarm.engine().now()});
  if (swarm.peer(t.from).active()) swarm.request_refill(t.from);
}

void TChainStrategy::on_delivered(sim::Swarm& swarm, const sim::Transfer& t) {
  // --- sender side: did this transfer discharge an obligation? ----------
  auto sit = state_.find(t.from);
  if (sit != state_.end()) {
    auto inflight = sit->second.in_flight.find(key(t.to, t.piece));
    if (inflight != sit->second.in_flight.end()) {
      const sim::PieceId unlocked_piece = inflight->second.unlocks;
      sit->second.in_flight.erase(inflight);
      dec_backlog(t.from);
      resolve_fulfilled(swarm, t.from, unlocked_piece);
    }
  }

  // --- receiver side: register the new chain link and obligation. --------
  // A receiver that churned mid-transfer (even one that already rejoined,
  // hence the epoch check) never got the payload: no link, no duty.
  const sim::Peer recv = swarm.peer(t.to);
  if (recv.state() != sim::PeerState::kActive || recv.epoch() != t.to_epoch ||
      !t.locked) {
    return;
  }

  links_[key(t.to, t.piece)] = ChainLink{t.from, false};
  downstream_[t.from].push_back({t.to, t.piece});

  // The sender designates where to reciprocate: itself if it needs
  // something from the receiver (direct reciprocity), otherwise a random
  // neighbor of the sender's that still needs this piece.
  sim::PeerId suggested = sim::kNoPeer;
  if (!swarm.peer(t.from).is_seeder() &&
      swarm.needs_from(t.from, t.to, /*include_locked_offer=*/true)) {
    suggested = t.from;
  } else {
    std::vector<sim::PeerId> pool;
    for (sim::PeerId n : swarm.peer(t.from).neighbors()) {
      if (n == t.to || n == t.from) continue;
      const sim::Peer q = swarm.peer(n);
      if (q.active() && !q.is_seeder() && !q.unavailable().test(t.piece)) {
        pool.push_back(n);
      }
    }
    if (!pool.empty()) {
      suggested = pool[swarm.rng().uniform_u64(pool.size())];
    }
  }

  if (recv.is_free_rider()) {
    // Collusion (Section IV-C): if the designated third party is a fellow
    // colluder it falsely reports receipt, and the sender releases the key
    // without any reciprocation having happened.
    if (recv.collusion_group() >= 0 && suggested != sim::kNoPeer &&
        suggested != t.from && swarm.same_collusion_ring(t.to, suggested)) {
      resolve_fulfilled(swarm, t.to, t.piece);
      return;
    }
    // Plain free-riding: the obligation is silently queued and never acted
    // on; the payload stays locked and the backlog cap starves the peer.
    state_[t.to].obligations.push_back(
        Obligation{t.piece, t.from, suggested, swarm.engine().now()});
    inc_backlog(t.to);
    return;
  }

  state_[t.to].obligations.push_back(
      Obligation{t.piece, t.from, suggested, swarm.engine().now()});
  inc_backlog(t.to);
  swarm.request_refill(t.to);
}

void TChainStrategy::resolve_fulfilled(sim::Swarm& swarm,
                                       sim::PeerId receiver,
                                       sim::PieceId piece) {
  auto it = links_.find(key(receiver, piece));
  if (it == links_.end()) return;
  it->second.fulfilled = true;
  try_unlock(swarm, receiver, piece);
}

void TChainStrategy::try_unlock(sim::Swarm& swarm, sim::PeerId receiver,
                                sim::PieceId piece) {
  auto it = links_.find(key(receiver, piece));
  if (it == links_.end() || !it->second.fulfilled) return;
  const sim::PeerId sender = it->second.sender;
  const sim::Peer s = swarm.peer(sender);
  // The sender can hand over the key once it holds the piece usable (or is
  // the seeder / has since finished and left with the full file).
  const bool sender_has_key = s.is_seeder() || s.pieces().test(piece) ||
                              s.state() == sim::PeerState::kLeft;
  if (!sender_has_key) return;  // retried when the sender unlocks
  links_.erase(it);
  swarm.make_usable(receiver, piece, sender);
  // Keys cascade: anyone waiting on `receiver` for this piece can now be
  // unlocked (if they have fulfilled their own obligation).
  auto down = downstream_.find(receiver);
  if (down == downstream_.end()) return;
  // Copy out: try_unlock recursion may mutate downstream_.
  const auto waiters = down->second;
  for (const auto& [r2, p2] : waiters) {
    if (p2 == piece) try_unlock(swarm, r2, p2);
  }
}

void TChainStrategy::grace_scan(sim::Swarm& swarm) {
  const sim::Seconds now = swarm.engine().now();
  for (auto& [id, st] : state_) {
    const sim::Peer p = swarm.peer(id);
    if (p.is_free_rider()) continue;  // refusal is never excused
    if (p.state() == sim::PeerState::kPending) continue;
    // Collect first (resolve_fulfilled can cascade into make_usable and
    // mutate this peer's queue via finish bookkeeping).
    std::vector<sim::PieceId> expired;
    for (const Obligation& ob : st.obligations) {
      if (now - ob.created >= grace_) expired.push_back(ob.piece);
    }
    for (sim::PieceId piece : expired) {
      drop_obligation(id, piece);
      resolve_fulfilled(swarm, id, piece);
    }
  }
  if (now + grace_ / 2.0 <= swarm.config().max_time) {
    swarm.engine().schedule_tagged(
        grace_ / 2.0, sim::make_timer_tag(sim::kEvStrategyTimer, 0),
        [this, &swarm] { grace_scan(swarm); });
  }
}

void TChainStrategy::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u64(max_backlog_);
  sink.put_double(grace_);
  util::save_unordered_map(
      sink, state_, [](util::ByteSink& s, const PeerState& st) {
        s.put_u64(st.obligations.size());
        for (const Obligation& ob : st.obligations) {
          s.put_u32(ob.piece);
          s.put_u32(ob.designator);
          s.put_u32(ob.suggested_target);
          s.put_double(ob.created);
        }
        util::save_unordered_map(
            s, st.in_flight, [](util::ByteSink& s2, const InFlightDuty& d) {
              s2.put_u32(d.unlocks);
              s2.put_u32(d.designator);
              s2.put_u32(d.suggested_target);
            });
      });
  sink.put_u64(backlog_count_.size());
  for (const std::uint32_t c : backlog_count_) sink.put_u32(c);
  util::save_unordered_map(sink, links_,
                           [](util::ByteSink& s, const ChainLink& l) {
                             s.put_u32(l.sender);
                             s.put_bool(l.fulfilled);
                           });
  util::save_unordered_map(
      sink, downstream_,
      [](util::ByteSink& s,
         const std::vector<std::pair<sim::PeerId, sim::PieceId>>& waiters) {
        s.put_u64(waiters.size());
        for (const auto& [receiver, piece] : waiters) {
          s.put_u32(receiver);
          s.put_u32(piece);
        }
      });
  sink.put_u32(pending_plan_.from);
  sink.put_u32(pending_plan_.to);
  sink.put_u32(pending_plan_.piece);
  sink.put_u32(pending_plan_.unlocks);
  sink.put_bool(pending_plan_.valid);
}

void TChainStrategy::checkpoint_load(util::ByteSource& src,
                                     const sim::Swarm& swarm) {
  max_backlog_ = static_cast<std::size_t>(src.get_u64());
  grace_ = src.get_double();
  util::load_unordered_map(src, state_, [&src](util::ByteSource&) {
    PeerState st;
    const std::size_t n_ob = src.get_count(20);
    for (std::size_t i = 0; i < n_ob; ++i) {
      Obligation ob;
      ob.piece = src.get_u32();
      ob.designator = src.get_u32();
      ob.suggested_target = src.get_u32();
      ob.created = src.get_double();
      st.obligations.push_back(ob);
    }
    util::load_unordered_map(src, st.in_flight, [](util::ByteSource& s2) {
      InFlightDuty d;
      d.unlocks = s2.get_u32();
      d.designator = s2.get_u32();
      d.suggested_target = s2.get_u32();
      return d;
    });
    return st;
  });
  const std::size_t n_backlog = src.get_count(4);
  if (n_backlog != 0 && n_backlog != swarm.peer_count()) {
    throw util::SerializeError(
        "TChainStrategy restore: backlog mirror size " +
        std::to_string(n_backlog) + " != population " +
        std::to_string(swarm.peer_count()));
  }
  backlog_count_.resize(n_backlog);
  for (std::uint32_t& c : backlog_count_) c = src.get_u32();
  util::load_unordered_map(src, links_, [](util::ByteSource& s) {
    ChainLink l;
    l.sender = s.get_u32();
    l.fulfilled = s.get_bool();
    return l;
  });
  util::load_unordered_map(src, downstream_, [](util::ByteSource& s) {
    std::vector<std::pair<sim::PeerId, sim::PieceId>> waiters;
    const std::size_t n = s.get_count(8);
    waiters.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const sim::PeerId receiver = s.get_u32();
      const sim::PieceId piece = s.get_u32();
      waiters.emplace_back(receiver, piece);
    }
    return waiters;
  });
  pending_plan_.from = src.get_u32();
  pending_plan_.to = src.get_u32();
  pending_plan_.piece = src.get_u32();
  pending_plan_.unlocks = src.get_u32();
  pending_plan_.valid = src.get_bool();
}

sim::SmallEventFn TChainStrategy::rebuild_timer(sim::Swarm& swarm,
                                                std::uint32_t sub) {
  if (sub != 0) {
    throw std::logic_error("TChainStrategy::rebuild_timer: unknown sub-id " +
                           std::to_string(sub));
  }
  return [this, &swarm] { grace_scan(swarm); };
}

}  // namespace coopnet::strategy
