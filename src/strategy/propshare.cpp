#include "strategy/propshare.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void PropShareStrategy::attach(sim::Swarm& swarm) {
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

void PropShareStrategy::reshare_all(sim::Swarm& swarm) {
  for (std::size_t i = 0; i < swarm.leechers(); ++i) {
    const auto id = static_cast<sim::PeerId>(i);
    sim::Peer p = swarm.peer(id);
    if (!p.active() || p.is_free_rider()) continue;
    PeerShareState& st = state_[id];
    st.shares.clear();
    for (const auto& [from, bytes] : p.round_received()) {
      if (bytes > 0 && !swarm.is_seeder(from)) {
        st.shares.emplace_back(from, static_cast<double>(bytes));
      }
    }
    // Rotate the optimistic target every round (PropShare spends its
    // exploration budget more aggressively than BitTorrent's 3-round
    // rotation; it needs discovery to learn new bid levels).
    auto needy = swarm.needy_neighbors(id);
    st.optimistic = needy.empty()
                        ? sim::kNoPeer
                        : needy[swarm.rng().uniform_u64(needy.size())];
    p.prev_round_received() = std::move(p.round_received());
    p.round_received().clear();
    swarm.request_refill(id);
  }
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

std::optional<sim::UploadAction> PropShareStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  auto it = state_.find(uploader);
  if (it == state_.end()) {
    // Pre-first-round: open a pinned optimistic slot, as in BitTorrent.
    auto needy = swarm.needy_neighbors(uploader);
    if (needy.empty()) return std::nullopt;
    PeerShareState& st = state_[uploader];
    st.optimistic = needy[swarm.rng().uniform_u64(needy.size())];
    it = state_.find(uploader);
  }
  const PeerShareState& st = it->second;
  const int n_bt = swarm.config().n_bt;  // reciprocal : altruism = n_bt : 1

  sim::PeerId to = sim::kNoPeer;
  if (st.busy_optimistic == 0 && st.optimistic != sim::kNoPeer &&
      swarm.needs_from(st.optimistic, uploader)) {
    to = st.optimistic;
  } else if (st.busy_share < n_bt && !st.shares.empty()) {
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
  auto it = state_.find(t.from);
  if (it == state_.end()) return;
  const bool optimistic = (t.to == it->second.optimistic);
  inflight_optimistic_[transfer_key(t)] = optimistic;
  if (optimistic) {
    ++it->second.busy_optimistic;
  } else {
    ++it->second.busy_share;
  }
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
  auto inflight = inflight_optimistic_.find(transfer_key(t));
  if (inflight == inflight_optimistic_.end()) return;
  const bool optimistic = inflight->second;
  inflight_optimistic_.erase(inflight);
  auto it = state_.find(t.from);
  if (it == state_.end()) return;
  if (optimistic) {
    --it->second.busy_optimistic;
  } else {
    --it->second.busy_share;
  }
}


void PropShareStrategy::checkpoint_save(util::ByteSink& sink) const {
  util::save_unordered_map(
      sink, state_, [](util::ByteSink& s, const PeerShareState& st) {
        s.put_u64(st.shares.size());
        for (const auto& [from, bytes] : st.shares) {
          s.put_u32(from);
          s.put_double(bytes);
        }
        s.put_u32(st.optimistic);
        s.put_u32(static_cast<std::uint32_t>(st.busy_optimistic));
        s.put_u32(static_cast<std::uint32_t>(st.busy_share));
      });
  util::save_unordered_map(sink, inflight_optimistic_,
                           [](util::ByteSink& s, bool optimistic) {
                             s.put_bool(optimistic);
                           });
}

void PropShareStrategy::checkpoint_load(util::ByteSource& src,
                                        const sim::Swarm& swarm) {
  (void)swarm;
  util::load_unordered_map(src, state_, [](util::ByteSource& s) {
    PeerShareState st;
    const std::size_t n = s.get_count(12);
    st.shares.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const sim::PeerId from = s.get_u32();
      const double bytes = s.get_double();
      st.shares.emplace_back(from, bytes);
    }
    st.optimistic = s.get_u32();
    st.busy_optimistic = static_cast<int>(s.get_u32());
    st.busy_share = static_cast<int>(s.get_u32());
    return st;
  });
  util::load_unordered_map(src, inflight_optimistic_,
                           [](util::ByteSource& s) { return s.get_bool(); });
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
