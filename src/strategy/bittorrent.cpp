#include "strategy/bittorrent.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void BitTorrentStrategy::attach(sim::Swarm& swarm) {
  state_.assign(swarm.peer_count(), {});
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

void BitTorrentStrategy::rechoke_all(sim::Swarm& swarm) {
  ++round_;
  const bool rotate =
      (round_ % swarm.config().optimistic_rounds) == 1 ||
      swarm.config().optimistic_rounds == 1;
  for (std::size_t i = 0; i < swarm.leechers(); ++i) {
    const auto id = static_cast<sim::PeerId>(i);
    sim::Peer p = swarm.peer(id);
    if (!p.active() || p.is_free_rider()) continue;
    // Strategic clients run no choker of their own but still need their
    // per-round receipt windows advanced.
    if (!p.is_strategic()) rechoke_one(swarm, id, rotate);
    p.end_round();
    swarm.request_refill(id);
  }
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

void BitTorrentStrategy::rechoke_one(sim::Swarm& swarm, sim::PeerId id,
                                     bool rotate_optimistic) {
  sim::Peer p = swarm.peer(id);
  PeerChokeState& st = state_[id];
  st.started = true;

  // Interested candidates: active neighbors we could serve, in neighbor
  // order. Each candidate's receipt count this round is read once, here,
  // not once per sort comparison: the sort key, and so the order, are the
  // same. The neighbor row is ascending, so one cursor walks the ledger
  // row alongside it.
  struct Ranked {
    sim::PeerId id;
    sim::Bytes received;
  };
  const sim::NeighborRange nbrs = p.neighbors();
  std::vector<Ranked> ranked;
  ranked.reserve(nbrs.size());
  sim::LedgerCursor ledger(p.ledger());
  for (const sim::PeerId n : nbrs) {
    if (!swarm.needs_from(n, id)) continue;
    const sim::EdgeCounters* e = ledger.find(n);
    ranked.push_back({n, e == nullptr ? 0 : e->round_received});
  }
  // Random shuffle first so the stable sort breaks byte-count ties fairly.
  swarm.rng().shuffle(ranked);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.received > b.received;
                   });

  // Tit-for-tat slots are reserved for actual reciprocators: only
  // neighbors that sent data this round are unchoked. Newcomers (and
  // free-riders) can only be reached through the optimistic slot, which
  // is what gives BitTorrent its slow Table II bootstrap probability.
  const auto n_bt = static_cast<std::size_t>(swarm.config().n_bt);
  const auto in_unchoked = [&st](sim::PeerId n) {
    return std::ranges::find(st.unchoked, n) != st.unchoked.end();
  };
  st.unchoked.clear();
  for (const Ranked& n : ranked) {
    if (st.unchoked.size() >= n_bt) break;
    if (n.received <= 0) break;
    st.unchoked.push_back(n.id);
  }

  const bool optimistic_stale = st.optimistic == sim::kNoPeer ||
                                !swarm.needs_from(st.optimistic, id) ||
                                in_unchoked(st.optimistic);
  if (rotate_optimistic || optimistic_stale) {
    st.optimistic = sim::kNoPeer;
    std::vector<sim::PeerId> pool;
    for (const Ranked& n : ranked) {
      if (!in_unchoked(n.id)) pool.push_back(n.id);
    }
    if (!pool.empty()) {
      st.optimistic = pool[swarm.rng().uniform_u64(pool.size())];
    }
  }
}

std::optional<sim::UploadAction> BitTorrentStrategy::strategic_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  // A BitTyrant client never opens optimistic slots and keeps at most one
  // reciprocal upload in flight -- just enough give-back to stay in its
  // benefactors' tit-for-tat sets. It repays the *cheapest* recent
  // contributor first: that is the unchoke slot most at risk.
  PeerChokeState& st = state_[uploader];
  st.started = true;
  if (st.uploads.reciprocal() >= 1) return std::nullopt;
  const sim::Peer up = swarm.peer(uploader);
  sim::PeerId to = sim::kNoPeer;
  sim::Bytes cheapest = 0;
  for (const sim::EdgeCounters& e : up.ledger()) {
    const sim::Bytes bytes = e.prev_round_received;
    if (bytes <= 0 || swarm.is_seeder(e.peer)) continue;
    if (!swarm.needs_from(e.peer, uploader)) continue;
    if (to == sim::kNoPeer || bytes < cheapest) {
      to = e.peer;
      cheapest = bytes;
    }
  }
  if (to == sim::kNoPeer) return std::nullopt;
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}

std::optional<sim::UploadAction> BitTorrentStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  if (swarm.peer(uploader).is_strategic()) {
    return strategic_upload(swarm, uploader);
  }
  PeerChokeState& st = state_[uploader];
  if (!st.started) {
    // Before this peer's first rechoke round there is no history: open an
    // optimistic-unchoke slot toward one random neighbor and keep serving
    // that same neighbor until the first rechoke (per-slot target churn
    // would amount to altruism).
    const auto& needy = swarm.needy_neighbors(uploader);
    if (needy.empty()) return std::nullopt;
    st.optimistic = needy[swarm.rng().uniform_u64(needy.size())];
    st.started = true;
  }

  // Enforce the n_bt : 1 slot split between tit-for-tat and the optimistic
  // unchoke: at most one in-flight optimistic upload and at most n_bt
  // in-flight tit-for-tat uploads. The optimistic share stays at
  // ~alpha_BT = 1/(n_bt + 1) even when there are no reciprocators --
  // tit-for-tat bandwidth idles rather than spilling into altruism, which
  // is what bounds Table III's exploitable resources at alpha_BT * sum U.
  sim::PeerId to = sim::kNoPeer;
  if (st.uploads.optimistic() == 0 && st.optimistic != sim::kNoPeer &&
      swarm.needs_from(st.optimistic, uploader)) {
    to = st.optimistic;
  } else if (st.uploads.reciprocal() < swarm.config().n_bt) {
    std::vector<sim::PeerId> live;
    for (const sim::PeerId n : st.unchoked) {
      if (swarm.needs_from(n, uploader)) live.push_back(n);
    }
    if (!live.empty()) to = live[swarm.rng().uniform_u64(live.size())];
  }
  if (to == sim::kNoPeer) return std::nullopt;
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}

void BitTorrentStrategy::on_upload_started(sim::Swarm& swarm,
                                           const sim::Transfer& t) {
  if (swarm.is_seeder(t.from)) return;
  PeerChokeState& st = state_[t.from];
  if (st.started) st.uploads.start(t, t.to == st.optimistic);
}

void BitTorrentStrategy::on_transfer_failed(sim::Swarm& swarm,
                                            const sim::Transfer& t,
                                            bool will_retry) {
  (void)will_retry;
  // Slot accounting for this attempt ends here either way: a queued retry
  // re-registers through on_upload_started when it actually starts. The
  // terminal notification after a released attempt is a harmless no-op
  // (the in-flight entry is already gone).
  on_delivered(swarm, t);
}

void BitTorrentStrategy::on_delivered(sim::Swarm& swarm,
                                      const sim::Transfer& t) {
  (void)swarm;
  state_[t.from].uploads.finish(t);
}

void BitTorrentStrategy::checkpoint_save(util::ByteSink& sink) const {
  util::save_by_id(
      sink, state_, [](const PeerChokeState& st) { return st.started; },
      [](util::ByteSink& s, const PeerChokeState& st) {
        s.put_u64(st.unchoked.size());
        s.put_span(st.unchoked.data(), st.unchoked.size());
        s.put_u32(st.optimistic);
        st.uploads.save(s);
      });
  sink.put_u32(static_cast<std::uint32_t>(round_));
}

void BitTorrentStrategy::checkpoint_load(util::ByteSource& src,
                                         const sim::Swarm& swarm) {
  const std::size_t peers = swarm.peer_count();
  const std::size_t pieces = swarm.config().piece_count();
  std::vector<PeerChokeState> state(peers);
  util::load_by_id(src, state, 28, [&](util::ByteSource& s,
                                       PeerChokeState& st) {
    st.started = true;
    st.unchoked.resize(s.get_count(4));
    for (sim::PeerId& id : st.unchoked) id = s.get_id(peers);
    st.optimistic = s.get_id_or_none(peers);
    st.uploads.load(s, peers, pieces);
  });
  const int round = static_cast<int>(src.get_u32());
  state_ = std::move(state);
  round_ = round;
}

sim::SmallEventFn BitTorrentStrategy::rebuild_timer(sim::Swarm& swarm,
                                                    std::uint32_t sub) {
  if (sub != 0) {
    throw std::logic_error(
        "BitTorrentStrategy::rebuild_timer: unknown sub-id " +
        std::to_string(sub));
  }
  return [this, &swarm] { rechoke_all(swarm); };
}

}  // namespace coopnet::strategy
