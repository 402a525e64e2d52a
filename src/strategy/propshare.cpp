#include "strategy/propshare.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void PropShareStrategy::attach(sim::Swarm& swarm) {
  state_.assign(swarm.peer_count(), {});
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

void PropShareStrategy::reshare_all(sim::Swarm& swarm) {
  for (std::size_t i = 0; i < swarm.leechers(); ++i) {
    const auto id = static_cast<sim::PeerId>(i);
    sim::Peer p = swarm.peer(id);
    if (!p.active() || p.is_free_rider()) continue;
    PeerShareState& st = state_[id];
    st.started = true;
    st.shares.clear();
    for (const sim::EdgeCounters& e : p.ledger()) {
      if (e.round_received > 0 && !swarm.is_seeder(e.peer)) {
        st.shares.emplace_back(e.peer, static_cast<double>(e.round_received));
      }
    }
    // Rotate the optimistic target every round (PropShare spends its
    // exploration budget more aggressively than BitTorrent's 3-round
    // rotation; it needs discovery to learn new bid levels).
    const auto& needy = swarm.needy_neighbors(id);
    st.optimistic = needy.empty()
                        ? sim::kNoPeer
                        : needy[swarm.rng().uniform_u64(needy.size())];
    p.end_round();
    swarm.request_refill(id);
  }
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

std::optional<sim::UploadAction> PropShareStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  PeerShareState& st = state_[uploader];
  if (!st.started) {
    // Pre-first-round: open a pinned optimistic slot, as in BitTorrent.
    const auto& needy = swarm.needy_neighbors(uploader);
    if (needy.empty()) return std::nullopt;
    st.started = true;
    st.optimistic = needy[swarm.rng().uniform_u64(needy.size())];
  }
  const int n_bt = swarm.config().n_bt;  // reciprocal : altruism = n_bt : 1

  sim::PeerId to = sim::kNoPeer;
  if (st.uploads.optimistic() == 0 && st.optimistic != sim::kNoPeer &&
      swarm.needs_from(st.optimistic, uploader)) {
    to = st.optimistic;
  } else if (st.uploads.reciprocal() < n_bt && !st.shares.empty()) {
    // Proportional-share allocation: pick the reciprocation target with
    // probability proportional to last round's contribution.
    std::vector<double> weights;
    std::vector<sim::PeerId> targets;
    for (const auto& [peer, bytes] : st.shares) {
      if (swarm.needs_from(peer, uploader)) {
        targets.push_back(peer);
        weights.push_back(bytes);
      }
    }
    if (!targets.empty()) {
      to = targets[swarm.rng().weighted_index(weights)];
    }
  }
  if (to == sim::kNoPeer) return std::nullopt;
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}

void PropShareStrategy::on_upload_started(sim::Swarm& swarm,
                                          const sim::Transfer& t) {
  if (swarm.is_seeder(t.from)) return;
  PeerShareState& st = state_[t.from];
  if (st.started) st.uploads.start(t, t.to == st.optimistic);
}

void PropShareStrategy::on_transfer_failed(sim::Swarm& swarm,
                                           const sim::Transfer& t,
                                           bool will_retry) {
  (void)will_retry;
  // Same release as a completion; a queued retry re-registers via
  // on_upload_started, and duplicate notifications no-op on the erased key.
  on_delivered(swarm, t);
}

void PropShareStrategy::on_delivered(sim::Swarm& swarm,
                                     const sim::Transfer& t) {
  (void)swarm;
  state_[t.from].uploads.finish(t);
}

void PropShareStrategy::checkpoint_save(util::ByteSink& sink) const {
  util::save_by_id(
      sink, state_, [](const PeerShareState& st) { return st.started; },
      [](util::ByteSink& s, const PeerShareState& st) {
        s.put_u64(st.shares.size());
        for (const auto& [from, bytes] : st.shares) {
          s.put_u32(from);
          s.put_double(bytes);
        }
        s.put_u32(st.optimistic);
        st.uploads.save(s);
      });
}

void PropShareStrategy::checkpoint_load(util::ByteSource& src,
                                        const sim::Swarm& swarm) {
  const std::size_t peers = swarm.peer_count();
  const std::size_t pieces = swarm.config().piece_count();
  std::vector<PeerShareState> state(peers);
  util::load_by_id(src, state, 28, [&](util::ByteSource& s,
                                       PeerShareState& st) {
    st.started = true;
    st.shares.resize(s.get_count(12));
    for (auto& [from, bytes] : st.shares) {
      from = s.get_id(peers);
      bytes = s.get_double();
    }
    st.optimistic = s.get_id_or_none(peers);
    st.uploads.load(s, peers, pieces);
  });
  state_ = std::move(state);
}

sim::SmallEventFn PropShareStrategy::rebuild_timer(sim::Swarm& swarm,
                                                   std::uint32_t sub) {
  if (sub != 0) {
    throw std::logic_error(
        "PropShareStrategy::rebuild_timer: unknown sub-id " +
        std::to_string(sub));
  }
  return [this, &swarm] { reshare_all(swarm); };
}

}  // namespace coopnet::strategy
