#include "strategy/bittorrent.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void BitTorrentStrategy::attach(sim::Swarm& swarm) {
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
    p.prev_round_received() = std::move(p.round_received());
    p.round_received().clear();
    swarm.request_refill(id);
  }
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

void BitTorrentStrategy::rechoke_one(sim::Swarm& swarm, sim::PeerId id,
                                     bool rotate_optimistic) {
  sim::Peer p = swarm.peer(id);
  PeerChokeState& st = state_[id];

  // Interested candidates: active neighbors we could serve. The check
  // goes through the per-edge memo; the verdicts -- and so the candidate
  // list, the shuffle's draw count, and everything downstream -- are
  // identical to the plain needs_from scan.
  const sim::NeighborRange nbrs = p.neighbors();
  std::vector<Pick> candidates;
  candidates.reserve(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (swarm.neighbor_needs_from(id, i)) {
      candidates.push_back(Pick{static_cast<std::uint32_t>(i), nbrs[i]});
    }
  }
  // Random shuffle first so the stable sort breaks byte-count ties fairly.
  swarm.rng().shuffle(candidates);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&p](const Pick& a, const Pick& b) {
                     auto get = [&p](sim::PeerId x) {
                       auto it = p.round_received().find(x);
                       return it == p.round_received().end() ? sim::Bytes{0}
                                                           : it->second;
                     };
                     return get(a.id) > get(b.id);
                   });

  // Tit-for-tat slots are reserved for actual reciprocators: only
  // neighbors that sent data this round are unchoked. Newcomers (and
  // free-riders) can only be reached through the optimistic slot, which
  // is what gives BitTorrent its slow Table II bootstrap probability.
  const auto n_bt = static_cast<std::size_t>(swarm.config().n_bt);
  const auto in_unchoked = [&st](sim::PeerId n) {
    return std::find_if(st.unchoked.begin(), st.unchoked.end(),
                        [n](const Pick& u) { return u.id == n; }) !=
           st.unchoked.end();
  };
  st.unchoked.clear();
  for (const Pick& n : candidates) {
    if (st.unchoked.size() >= n_bt) break;
    auto it = p.round_received().find(n.id);
    if (it == p.round_received().end() || it->second <= 0) break;
    st.unchoked.push_back(n);
  }

  const bool optimistic_stale =
      st.optimistic.id == sim::kNoPeer ||
      !swarm.neighbor_needs_from(id, st.optimistic.index) ||
      in_unchoked(st.optimistic.id);
  if (rotate_optimistic || optimistic_stale) {
    st.optimistic = Pick{};
    std::vector<Pick> pool;
    for (const Pick& n : candidates) {
      if (!in_unchoked(n.id)) pool.push_back(n);
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
  if (st.busy_tft >= 1) return std::nullopt;
  const sim::Peer up = swarm.peer(uploader);
  sim::PeerId to = sim::kNoPeer;
  sim::Bytes cheapest = 0;
  for (const auto& [from, bytes] : up.prev_round_received()) {
    if (bytes <= 0 || swarm.is_seeder(from)) continue;
    if (!swarm.needs_from(from, uploader)) continue;
    if (to == sim::kNoPeer || bytes < cheapest) {
      to = from;
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
  auto it = state_.find(uploader);
  if (it == state_.end()) {
    // Before this peer's first rechoke round there is no history: open an
    // optimistic-unchoke slot toward one random neighbor and keep serving
    // that same neighbor until the first rechoke (per-slot target churn
    // would amount to altruism).
    auto needy = swarm.needy_neighbors(uploader);
    if (needy.empty()) return std::nullopt;
    const sim::PeerId picked = needy[swarm.rng().uniform_u64(needy.size())];
    PeerChokeState& st = state_[uploader];
    // Recover the picked neighbor's index so follow-up checks can use the
    // per-edge memo (needy_neighbors returns ids only; the scan is cold
    // -- once per peer).
    const sim::NeighborRange nbrs = swarm.peer(uploader).neighbors();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == picked) {
        st.optimistic = Pick{static_cast<std::uint32_t>(i), picked};
        break;
      }
    }
    it = state_.find(uploader);
  }

  // Enforce the n_bt : 1 slot split between tit-for-tat and the optimistic
  // unchoke: at most one in-flight optimistic upload and at most n_bt
  // in-flight tit-for-tat uploads. The optimistic share stays at
  // ~alpha_BT = 1/(n_bt + 1) even when there are no reciprocators --
  // tit-for-tat bandwidth idles rather than spilling into altruism, which
  // is what bounds Table III's exploitable resources at alpha_BT * sum U.
  const PeerChokeState& st = it->second;
  sim::PeerId to = sim::kNoPeer;
  if (st.busy_optimistic == 0 && st.optimistic.id != sim::kNoPeer &&
      swarm.neighbor_needs_from(uploader, st.optimistic.index)) {
    to = st.optimistic.id;
  } else if (st.busy_tft < swarm.config().n_bt) {
    std::vector<sim::PeerId> live;
    for (const Pick& n : st.unchoked) {
      if (swarm.neighbor_needs_from(uploader, n.index)) live.push_back(n.id);
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
  auto it = state_.find(t.from);
  if (it == state_.end()) return;
  const bool optimistic = (t.to == it->second.optimistic.id);
  inflight_optimistic_[transfer_key(t)] = optimistic;
  if (optimistic) {
    ++it->second.busy_optimistic;
  } else {
    ++it->second.busy_tft;
  }
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
  auto inflight = inflight_optimistic_.find(transfer_key(t));
  if (inflight == inflight_optimistic_.end()) return;
  const bool optimistic = inflight->second;
  inflight_optimistic_.erase(inflight);
  auto it = state_.find(t.from);
  if (it == state_.end()) return;
  if (optimistic) {
    --it->second.busy_optimistic;
  } else {
    --it->second.busy_tft;
  }
}


namespace {

void save_pick(coopnet::util::ByteSink& s,
               const coopnet::sim::PeerId id, std::uint32_t index) {
  s.put_u32(index);
  s.put_u32(id);
}

}  // namespace

void BitTorrentStrategy::checkpoint_save(util::ByteSink& sink) const {
  util::save_unordered_map(
      sink, state_, [](util::ByteSink& s, const PeerChokeState& st) {
        s.put_u64(st.unchoked.size());
        for (const Pick& pick : st.unchoked) save_pick(s, pick.id, pick.index);
        save_pick(s, st.optimistic.id, st.optimistic.index);
        s.put_u32(static_cast<std::uint32_t>(st.busy_optimistic));
        s.put_u32(static_cast<std::uint32_t>(st.busy_tft));
      });
  util::save_unordered_map(sink, inflight_optimistic_,
                           [](util::ByteSink& s, bool optimistic) {
                             s.put_bool(optimistic);
                           });
  sink.put_u32(static_cast<std::uint32_t>(round_));
}

void BitTorrentStrategy::checkpoint_load(util::ByteSource& src,
                                         const sim::Swarm& swarm) {
  (void)swarm;
  util::load_unordered_map(src, state_, [](util::ByteSource& s) {
    PeerChokeState st;
    const std::size_t n = s.get_count(8);
    st.unchoked.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Pick pick;
      pick.index = s.get_u32();
      pick.id = s.get_u32();
      st.unchoked.push_back(pick);
    }
    st.optimistic.index = s.get_u32();
    st.optimistic.id = s.get_u32();
    st.busy_optimistic = static_cast<int>(s.get_u32());
    st.busy_tft = static_cast<int>(s.get_u32());
    return st;
  });
  util::load_unordered_map(src, inflight_optimistic_,
                           [](util::ByteSource& s) { return s.get_bool(); });
  round_ = static_cast<int>(src.get_u32());
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
