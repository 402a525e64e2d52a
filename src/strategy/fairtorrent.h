// FairTorrent (reputation/altruism hybrid, Section III-A).
//
// Each peer keeps a deficit counter per neighbor: pieces uploaded to minus
// pieces received from. Every upload goes to the needy neighbor with the
// smallest (most negative) deficit -- i.e. to whoever this peer owes most.
// When every counter is non-negative the minimum is a zero-deficit
// stranger, which is exactly the algorithm's altruistic bootstrap path.
#pragma once

#include "sim/strategy.h"

namespace coopnet::strategy {

class FairTorrentStrategy final : public sim::ExchangeStrategy {
 public:
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  bool admits_everyone() const override { return true; }

  // Genuinely stateless: the deficit counters FairTorrent ranks by live in
  // the PeerStore (serialized by the swarm checkpoint) and it schedules no
  // timers, so there is nothing to save or rebuild.
  void checkpoint_save(util::ByteSink& sink) const override { (void)sink; }
  void checkpoint_load(util::ByteSource& src,
                       const sim::Swarm& swarm) override {
    (void)src;
    (void)swarm;
  }
};

}  // namespace coopnet::strategy
