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
  state_.assign(swarm.peer_count(), {});
  swarm.engine().schedule(grace_ / 2.0,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
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
  // Any neighbor that needs the received piece: of the admitted ones
  // (can_deliver's obligation-independent tests), those still missing it.
  std::vector<sim::PeerId>& candidates = scan_.candidates;
  candidates.clear();
  for (const sim::PeerId n : scan_.admitted) {
    if (n != ob.designator && !swarm.peer(n).unavailable().test(ob.piece)) {
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
  const std::vector<sim::PeerId>& needy =
      needy_neighbors(swarm, p, /*include_locked_offer=*/true);
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

void TChainStrategy::scan_neighbors(const sim::Swarm& swarm,
                                    sim::PeerId uploader) {
  scan_.admitted.clear();
  scan_.needy_built[0] = scan_.needy_built[1] = false;
  for (const sim::PeerId n : swarm.peer(uploader).neighbors()) {
    const sim::ConstPeer q = swarm.peer(n);
    if (q.active() && !q.is_seeder() && accepts_delivery(swarm, n)) {
      scan_.admitted.push_back(n);
    }
  }
}

const std::vector<sim::PeerId>& TChainStrategy::needy_neighbors(
    sim::Swarm& swarm, sim::PeerId uploader, bool include_locked_offer) {
  const int lane = include_locked_offer ? 1 : 0;
  std::vector<sim::PeerId>& out = scan_.needy[lane];
  if (scan_.needy_built[lane]) return out;
  scan_.needy_built[lane] = true;
  // Swarm::needy_neighbors' filters (active, accepts_incoming, can_offer,
  // accepts_delivery) are pure predicates here, so filtering the admitted
  // pass gives its list, in its neighbor order.
  out.clear();
  for (const sim::PeerId n : scan_.admitted) {
    if (swarm.accepts_incoming(n) &&
        swarm.needs_from(n, uploader, include_locked_offer)) {
      out.push_back(n);
    }
  }
  return out;
}

std::optional<sim::UploadAction> TChainStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  pending_plan_ = PendingPlan{};
  scan_neighbors(swarm, uploader);
  // 1. Discharge the oldest feasible obligation.
  for (const Obligation& ob : state_[uploader].obligations) {
    if (auto action = plan_obligation(swarm, uploader, ob)) {
      pending_plan_ = {uploader, action->to, action->piece, ob.piece, true};
      return action;
    }
  }
  // 2. Opportunistic seeding: initiate a fresh chain from usable pieces.
  const std::vector<sim::PeerId>& needy =
      needy_neighbors(swarm, uploader, /*include_locked_offer=*/false);
  if (needy.empty()) return std::nullopt;
  const sim::PeerId to = needy[swarm.rng().uniform_u64(needy.size())];
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  pending_plan_ = {uploader, to, piece, sim::kNoPiece, true};
  return sim::UploadAction{to, piece, /*locked=*/true};
}

void TChainStrategy::drop_obligation(sim::PeerId p, sim::PieceId piece) {
  auto& q = state_[p].obligations;
  auto ob = std::ranges::find(q, piece, &Obligation::piece);
  if (ob != q.end()) q.erase(ob);
}

std::vector<TChainStrategy::InFlightDuty>::iterator
TChainStrategy::find_in_flight(PeerState& st, const sim::Transfer& t) {
  return std::find_if(st.in_flight.begin(), st.in_flight.end(),
                      [&t](const InFlightDuty& d) {
                        return d.to == t.to && d.piece == t.piece;
                      });
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
    // queue into the in-flight list, keyed by the outgoing transfer.
    PeerState& st = state_[t.from];
    auto duty = find_in_flight(st, t);
    if (duty == st.in_flight.end()) duty = st.in_flight.emplace(duty);
    *duty = InFlightDuty{t.to, t.piece, pending_plan_.unlocks};
    auto ob = std::ranges::find(st.obligations, pending_plan_.unlocks,
                                &Obligation::piece);
    if (ob != st.obligations.end()) {
      duty->designator = ob->designator;
      duty->suggested_target = ob->suggested_target;
      st.obligations.erase(ob);
    }
  }
  pending_plan_ = PendingPlan{};
}

void TChainStrategy::on_transfer_failed(sim::Swarm& swarm,
                                        const sim::Transfer& t,
                                        bool will_retry) {
  // While a retry is queued the duty stays registered under the same
  // (target, piece) key -- the retried transfer's completion discharges it.
  if (will_retry) return;
  PeerState& st = state_[t.from];
  auto inflight = find_in_flight(st, t);
  if (inflight == st.in_flight.end()) return;
  const InFlightDuty duty = *inflight;
  st.in_flight.erase(inflight);
  // The reciprocation never happened: requeue the duty (fresh timestamp,
  // so the grace clock restarts) and let next_upload find another route.
  st.obligations.push_back(Obligation{
      duty.unlocks, duty.designator, duty.suggested_target,
      swarm.engine().now()});
  if (swarm.peer(t.from).active()) swarm.request_refill(t.from);
}

void TChainStrategy::on_delivered(sim::Swarm& swarm, const sim::Transfer& t) {
  // --- sender side: did this transfer discharge an obligation? ----------
  {
    PeerState& st = state_[t.from];
    auto inflight = find_in_flight(st, t);
    if (inflight != st.in_flight.end()) {
      const sim::PieceId unlocked_piece = inflight->unlocks;
      st.in_flight.erase(inflight);
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

  std::vector<ChainLink>& links = state_[t.to].links;
  auto link = std::ranges::find(links, t.piece, &ChainLink::piece);
  if (link == links.end()) link = links.emplace(link);
  *link = ChainLink{t.piece, t.from, false};
  // The new link waits on the sender's key only if the sender still lacks
  // it. A sender that already holds the piece usable (or is a seeder) can
  // never again hold a link for it, so try_unlock would never walk its
  // waiters for this piece: such a waiter is not recorded.
  const sim::Peer sender = swarm.peer(t.from);
  if (!sender.is_seeder() && !sender.pieces().test(t.piece)) {
    state_[t.from].downstream.push_back({t.to, t.piece});
  }

  // The sender designates where to reciprocate: itself if it needs
  // something from the receiver (direct reciprocity), otherwise a random
  // neighbor of the sender's that still needs this piece.
  sim::PeerId suggested = sim::kNoPeer;
  if (!sender.is_seeder() &&
      swarm.needs_from(t.from, t.to, /*include_locked_offer=*/true)) {
    suggested = t.from;
  } else {
    std::vector<sim::PeerId> pool;
    for (sim::PeerId n : sender.neighbors()) {
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
    return;
  }

  state_[t.to].obligations.push_back(
      Obligation{t.piece, t.from, suggested, swarm.engine().now()});
  swarm.request_refill(t.to);
}

void TChainStrategy::resolve_fulfilled(sim::Swarm& swarm,
                                       sim::PeerId receiver,
                                       sim::PieceId piece) {
  std::vector<ChainLink>& links = state_[receiver].links;
  auto link = std::ranges::find(links, piece, &ChainLink::piece);
  if (link == links.end()) return;
  link->fulfilled = true;
  try_unlock(swarm, receiver, piece);
}

void TChainStrategy::try_unlock(sim::Swarm& swarm, sim::PeerId receiver,
                                sim::PieceId piece) {
  std::vector<ChainLink>& links = state_[receiver].links;
  auto link = std::ranges::find(links, piece, &ChainLink::piece);
  if (link == links.end() || !link->fulfilled) return;
  const sim::PeerId sender = link->sender;
  const sim::Peer s = swarm.peer(sender);
  // The sender can hand over the key once it holds the piece usable (or is
  // the seeder / has since finished and left with the full file).
  const bool sender_has_key = s.is_seeder() || s.pieces().test(piece) ||
                              s.state() == sim::PeerState::kLeft;
  if (!sender_has_key) return;  // retried when the sender unlocks
  links.erase(link);
  swarm.make_usable(receiver, piece, sender);
  // Keys cascade: anyone waiting on `receiver` for this piece can now be
  // unlocked (if they have fulfilled their own obligation).
  //
  // The walk is by index over the live list, with no copy. The recursion
  // never appends to it: waiters are appended only by on_delivered. Nor
  // does it walk or prune it: every nested call is for this same piece,
  // and one that reaches (receiver, piece) again returns at the link check,
  // because that link was erased above.
  //
  // Waiters whose receiver no longer holds a link for their piece are
  // dropped; the rest keep their creation order. A link is never
  // re-created once erased: the piece is then usable at its receiver for
  // good (peer slots are not recycled within a run), so visiting such a
  // waiter again would be a no-op.
  std::vector<std::pair<sim::PeerId, sim::PieceId>>& waiters =
      state_[receiver].downstream;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    const auto [r2, p2] = waiters[i];
    if (p2 == piece) try_unlock(swarm, r2, p2);
    if (std::ranges::find(state_[r2].links, p2, &ChainLink::piece) !=
        state_[r2].links.end()) {
      waiters[kept++] = waiters[i];
    }
  }
  waiters.resize(kept);
}

void TChainStrategy::grace_scan(sim::Swarm& swarm) {
  const sim::Seconds now = swarm.engine().now();
  // Ascending ids: the keys this scan releases together unlock, and so
  // finish peers, in id order.
  for (sim::PeerId id = 0; id < state_.size(); ++id) {
    const PeerState& st = state_[id];
    if (st.obligations.empty()) continue;
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
    swarm.engine().schedule(grace_ / 2.0,
                            sim::make_timer_tag(sim::kEvStrategyTimer, 0));
  }
}

void TChainStrategy::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u64(max_backlog_);
  sink.put_double(grace_);
  util::save_by_id(
      sink, state_, [](const PeerState& st) { return !st.empty(); },
      [](util::ByteSink& s, const PeerState& st) {
        s.put_u64(st.obligations.size());
        for (const Obligation& ob : st.obligations) {
          s.put_u32(ob.piece);
          s.put_u32(ob.designator);
          s.put_u32(ob.suggested_target);
          s.put_double(ob.created);
        }
        s.put_u64(st.in_flight.size());
        for (const InFlightDuty& d : st.in_flight) {
          s.put_u32(d.to);
          s.put_u32(d.piece);
          s.put_u32(d.unlocks);
          s.put_u32(d.designator);
          s.put_u32(d.suggested_target);
        }
        s.put_u64(st.links.size());
        for (const ChainLink& l : st.links) {
          s.put_u32(l.piece);
          s.put_u32(l.sender);
          s.put_bool(l.fulfilled);
        }
        s.put_u64(st.downstream.size());
        for (const auto& [receiver, piece] : st.downstream) {
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
  const auto max_backlog = static_cast<std::size_t>(src.get_u64());
  const sim::Seconds grace = src.get_double();
  const std::size_t peers = swarm.peer_count();
  const std::size_t pieces = swarm.config().piece_count();
  std::vector<PeerState> state(peers);
  util::load_by_id(src, state, 32, [&](util::ByteSource& s, PeerState& st) {
    st.obligations.resize(s.get_count(20));
    for (Obligation& ob : st.obligations) {
      ob.piece = s.get_id(pieces);
      ob.designator = s.get_id_or_none(peers);
      ob.suggested_target = s.get_id_or_none(peers);
      ob.created = s.get_double();
    }
    st.in_flight.resize(s.get_count(20));
    for (InFlightDuty& d : st.in_flight) {
      d.to = s.get_id(peers);
      d.piece = s.get_id(pieces);
      d.unlocks = s.get_id(pieces);
      d.designator = s.get_id_or_none(peers);
      d.suggested_target = s.get_id_or_none(peers);
    }
    st.links.resize(s.get_count(9));
    for (ChainLink& l : st.links) {
      l.piece = s.get_id(pieces);
      l.sender = s.get_id(peers);
      l.fulfilled = s.get_bool();
    }
    st.downstream.resize(s.get_count(8));
    for (auto& [receiver, piece] : st.downstream) {
      receiver = s.get_id(peers);
      piece = s.get_id(pieces);
    }
  });
  PendingPlan plan;
  plan.from = src.get_id_or_none(peers);
  plan.to = src.get_id_or_none(peers);
  plan.piece = src.get_id_or_none(pieces);
  plan.unlocks = src.get_id_or_none(pieces);
  plan.valid = src.get_bool();
  max_backlog_ = max_backlog;
  grace_ = grace;
  state_ = std::move(state);
  pending_plan_ = plan;
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
