// PropShare (extension; Levin et al., the paper's ref. [5]).
//
// Like BitTorrent, a reciprocity/altruism hybrid -- but instead of equal
// tit-for-tat slots for the top n_BT contributors, each peer splits its
// reciprocal bandwidth across *all* of last round's contributors in
// proportion to what they sent ("BitTorrent is an auction: bid with your
// upload"). The optimistic/altruism budget stays at alpha_BT = 1/(n_bt+1).
//
// PropShare's design goal is strategyproofness: a peer's return is exactly
// proportional to its contribution, which removes the incentive to game
// the top-n_BT threshold and narrows what free-riders can take to the
// altruism budget alone.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/strategy.h"
#include "strategy/inflight_uploads.h"

namespace coopnet::strategy {

class PropShareStrategy final : public sim::ExchangeStrategy {
 public:
  void attach(sim::Swarm& swarm) override;
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  bool admits_everyone() const override { return true; }
  void on_upload_started(sim::Swarm& swarm,
                         const sim::Transfer& transfer) override;
  void on_delivered(sim::Swarm& swarm,
                    const sim::Transfer& transfer) override;
  void on_transfer_failed(sim::Swarm& swarm, const sim::Transfer& transfer,
                          bool will_retry) override;

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  // Serializes the started peers' share state (bid list in its exact
  // order -- the proportional split sums doubles in list order --
  // optimistic slot, busy counters, in-flight uploads) in ascending id
  // order. Timer sub 0 is the reshare sweep.
  void checkpoint_save(util::ByteSink& sink) const override;
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override;
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override;

 private:
  struct PeerShareState {
    /// Set by the peer's first reshare round or first upload decision;
    /// until then next_upload takes the pre-first-round path.
    bool started = false;
    /// Last round's contributors and their byte counts (the "bids"), in
    /// ascending id order.
    std::vector<std::pair<sim::PeerId, double>> shares;
    sim::PeerId optimistic = sim::kNoPeer;
    InFlightUploads uploads;
  };

  void reshare_all(sim::Swarm& swarm);

  std::vector<PeerShareState> state_;  // indexed by PeerId
};

}  // namespace coopnet::strategy
