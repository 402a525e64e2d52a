// Pure altruism (Section III-A): upload to uniformly random needy
// neighbors at full capacity, with no reciprocity expectation.
#pragma once

#include "sim/strategy.h"

namespace coopnet::strategy {

class AltruismStrategy final : public sim::ExchangeStrategy {
 public:
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  bool admits_everyone() const override { return true; }

  // Genuinely stateless: target choice is a fresh uniform draw per slot
  // (the RNG stream is serialized by the swarm checkpoint) and it
  // schedules no timers, so there is nothing to save or rebuild.
  void checkpoint_save(util::ByteSink& sink) const override { (void)sink; }
  void checkpoint_load(util::ByteSource& src,
                       const sim::Swarm& swarm) override {
    (void)src;
    (void)swarm;
  }
};

}  // namespace coopnet::strategy
