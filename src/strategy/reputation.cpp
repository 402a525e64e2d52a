#include "strategy/reputation.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/eigentrust.h"
#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::strategy {

void ReputationStrategy::attach(sim::Swarm& swarm) {
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
  if (swarm.config().reputation_mode == sim::ReputationMode::kEigenTrust) {
    swarm.engine().schedule(swarm.config().rechoke_interval,
                            sim::make_timer_tag(sim::kEvStrategyTimer, 1));
  }
}

void ReputationStrategy::recompute_eigentrust(sim::Swarm& swarm) {
  // Local trust = bytes actually received (service rendered), the
  // EigenTrust grounding that false praise cannot touch. Seeders anchor
  // the walk as the pre-trusted set; since they consume nothing, they
  // would be dangling anchors (an absorbing state), so each seeder
  // "vouches" for the peers it served: a reverse edge per seeder upload.
  std::vector<core::TrustEdge> edges;
  const std::size_t n = swarm.peer_count();
  for (sim::ConstPeer p : swarm.peers()) {
    for (const auto& [from, bytes] : p.received_from()) {
      if (bytes <= 0) continue;
      edges.push_back({static_cast<std::size_t>(p.id()),
                       static_cast<std::size_t>(from),
                       static_cast<double>(bytes)});
      if (swarm.is_seeder(from) && p.uploaded_bytes() > 0) {
        // The seeder vouches (uniformly, not by bytes -- free-riders soak
        // seeder bandwidth forever and must not launder it into trust)
        // for served peers with verified reciprocation evidence, e.g.
        // signed receipts from the receivers of that peer's uploads. The
        // modeled sybil-praise attackers forge *praise*, not receipts;
        // receipt forgery by collusion rings is out of scope and noted in
        // core/eigentrust.h.
        edges.push_back({static_cast<std::size_t>(from),
                         static_cast<std::size_t>(p.id()), 1.0});
      }
    }
  }
  std::vector<std::size_t> pretrusted;
  for (std::size_t s = 0; s < swarm.seeder_count(); ++s) {
    pretrusted.push_back(swarm.leechers() + s);
  }
  trust_ = core::eigentrust(n, edges, pretrusted);
  if (swarm.engine().now() + swarm.config().rechoke_interval <=
      swarm.config().max_time) {
    swarm.engine().schedule(swarm.config().rechoke_interval,
                            sim::make_timer_tag(sim::kEvStrategyTimer, 1));
  }
}

double ReputationStrategy::score(const sim::Swarm& swarm,
                                 sim::PeerId id) const {
  if (swarm.config().reputation_mode == sim::ReputationMode::kEigenTrust) {
    return id < trust_.size() ? trust_[id] : 0.0;
  }
  return swarm.reputation(id);
}

void ReputationStrategy::rotate_altruism_targets(sim::Swarm& swarm) {
  for (std::size_t i = 0; i < swarm.leechers(); ++i) {
    const auto id = static_cast<sim::PeerId>(i);
    const sim::Peer p = swarm.peer(id);
    if (!p.active() || p.is_free_rider()) continue;
    auto needy = swarm.needy_neighbors(id);
    pinned_[id] = needy.empty()
                      ? sim::kNoPeer
                      : needy[swarm.rng().uniform_u64(needy.size())];
  }
  swarm.engine().schedule(swarm.config().rechoke_interval,
                          sim::make_timer_tag(sim::kEvStrategyTimer, 0));
}

std::optional<sim::UploadAction> ReputationStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  auto needy = swarm.needy_neighbors(uploader);
  if (needy.empty()) return std::nullopt;

  sim::PeerId to = sim::kNoPeer;
  if (swarm.rng().bernoulli(swarm.config().alpha_r)) {
    // Altruism share: serve this interval's pinned target (bootstrap path).
    auto pin = pinned_.find(uploader);
    if (pin == pinned_.end()) {
      // First decision before any rotation: pin a random needy neighbor.
      pin = pinned_
                .insert({uploader,
                         needy[swarm.rng().uniform_u64(needy.size())]})
                .first;
    }
    if (pin->second == sim::kNoPeer ||
        !swarm.needs_from(pin->second, uploader)) {
      return std::nullopt;  // target satisfied; wait for the next rotation
    }
    to = pin->second;
  } else {
    std::vector<double> weights;
    weights.reserve(needy.size());
    double total = 0.0;
    for (sim::PeerId n : needy) {
      const double w = score(swarm, n);
      weights.push_back(w);
      total += w;
    }
    if (total <= 0.0) {
      // No needy neighbor has earned a reputation yet. The reciprocal
      // (1 - alpha_R) share of bandwidth has nowhere to go -- it idles
      // rather than flowing altruistically. This is precisely the
      // bootstrapping weakness Table II attributes to reputation systems.
      return std::nullopt;
    }
    to = needy[swarm.rng().weighted_index(weights)];
  }
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}


void ReputationStrategy::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u64(trust_.size());
  for (const double t : trust_) sink.put_double(t);
  util::save_unordered_map(sink, pinned_);
}

void ReputationStrategy::checkpoint_load(util::ByteSource& src,
                                         const sim::Swarm& swarm) {
  const std::size_t n = src.get_count(8);
  if (n != 0 && n != swarm.peer_count()) {
    throw util::SerializeError(
        "ReputationStrategy restore: trust vector size " + std::to_string(n) +
        " != population " + std::to_string(swarm.peer_count()));
  }
  trust_.resize(n);
  for (double& t : trust_) t = src.get_double();
  util::load_unordered_map(src, pinned_);
}

sim::SmallEventFn ReputationStrategy::rebuild_timer(sim::Swarm& swarm,
                                                    std::uint32_t sub) {
  switch (sub) {
    case 0:
      return [this, &swarm] { rotate_altruism_targets(swarm); };
    case 1:
      return [this, &swarm] { recompute_eigentrust(swarm); };
    default:
      throw std::logic_error(
          "ReputationStrategy::rebuild_timer: unknown sub-id " +
          std::to_string(sub));
  }
}

}  // namespace coopnet::strategy
