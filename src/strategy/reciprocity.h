// Pure direct reciprocity (Section III-A): a user uploads only to the
// neighbor that has contributed the most to it. Since no user can initiate
// an exchange, the only uploads come from the seeder -- and its recipients
// cannot reciprocate to it (it needs nothing), so peer-to-peer exchange
// never starts (Lemma 2 / Prop. 1's degenerate row).
#pragma once

#include "sim/strategy.h"

namespace coopnet::strategy {

class ReciprocityStrategy final : public sim::ExchangeStrategy {
 public:
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  bool admits_everyone() const override { return true; }

  // Genuinely stateless: the received-bytes history it ranks by lives in
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
