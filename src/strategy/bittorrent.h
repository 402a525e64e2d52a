// BitTorrent (reciprocity/altruism hybrid, Section III-A).
//
// Every rechoke interval each peer unchokes the n_BT neighbors that sent it
// the most data during the previous interval (tit-for-tat) plus one
// optimistic-unchoke slot rotated every `optimistic_rounds` intervals.
// With the default 5 upload slots the optimistic share is 1/5 = 20%,
// matching Section V-A's "random neighbors with a 20% probability".
#pragma once

#include <cstdint>
#include <vector>

#include "sim/strategy.h"
#include "strategy/inflight_uploads.h"

namespace coopnet::strategy {

class BitTorrentStrategy final : public sim::ExchangeStrategy {
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
  // Serializes the started peers' choke state (unchoked picks, optimistic
  // slot, busy counters, in-flight uploads) in ascending id order, and the
  // round counter. Timer sub 0 is the rechoke sweep.
  void checkpoint_save(util::ByteSink& sink) const override;
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override;
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override;

 private:
  struct PeerChokeState {
    /// Set by the peer's first rechoke round or first upload decision;
    /// until then next_upload takes the pre-first-rechoke path.
    bool started = false;
    std::vector<sim::PeerId> unchoked;  // tit-for-tat targets
    sim::PeerId optimistic = sim::kNoPeer;  // altruism slot, if any
    /// In-flight uploads per category; at most 1 optimistic and n_bt
    /// tit-for-tat transfers run concurrently, enforcing the
    /// alpha_BT = 1/(n_bt + 1) bandwidth split of Table I/III.
    InFlightUploads uploads;
  };

  void rechoke_all(sim::Swarm& swarm);
  void rechoke_one(sim::Swarm& swarm, sim::PeerId id, bool rotate_optimistic);
  /// BitTyrant-style decision for strategic clients: reciprocate minimally
  /// toward last round's cheapest contributor, never optimistically.
  std::optional<sim::UploadAction> strategic_upload(sim::Swarm& swarm,
                                                    sim::PeerId uploader);

  std::vector<PeerChokeState> state_;  // indexed by PeerId, sized by attach()
  int round_ = 0;
};

}  // namespace coopnet::strategy
