// Global reputation algorithm (Section III-A).
//
// Every peer's reputation is the (globally visible) total number of bytes
// it has uploaded to anyone. Uploads go to needy neighbors with probability
// proportional to reputation; a fixed alpha_R fraction of bandwidth is
// reserved for uniform altruism, which is how newcomers (zero reputation)
// are bootstrapped -- the EigenTrust-style arrangement of Section III.
//
// The sybil-praise attack (Section IV-C) works against exactly this
// visibility: colluders inject fictitious upload reports, inflating their
// scores and with them their share of everyone's reciprocal bandwidth.
#pragma once

#include <optional>
#include <vector>

#include "core/eigentrust.h"
#include "sim/strategy.h"

namespace coopnet::strategy {

class ReputationStrategy final : public sim::ExchangeStrategy {
 public:
  void attach(sim::Swarm& swarm) override;
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  bool admits_everyone() const override { return true; }

  /// The score the proportional allocation uses for `id`: the global
  /// ledger, or the latest EigenTrust vector (SwarmConfig::reputation_mode).
  double score(const sim::Swarm& swarm, sim::PeerId id) const;

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  // Serializes the latest EigenTrust vector and the pinned altruism
  // targets. Timer sub 0 is the altruism rotation, sub 1 the EigenTrust
  // recompute.
  void checkpoint_save(util::ByteSink& sink) const override;
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override;
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override;

 private:
  void rotate_altruism_targets(sim::Swarm& swarm);
  void recompute_eigentrust(sim::Swarm& swarm);

  /// Latest EigenTrust global-trust vector (kEigenTrust mode only).
  std::vector<double> trust_;

  /// Each peer's current altruism target. Pinned for a whole interval
  /// (rotated on a timer), mirroring the Table II model in which an
  /// altruistic user serves one newcomer per timeslot -- per-piece random
  /// targets would bootstrap a flash crowd far faster than the analysis
  /// (and EigenTrust-style systems) allow. Indexed by PeerId: nullopt
  /// means not pinned yet, kNoPeer means pinned to nobody.
  std::vector<std::optional<sim::PeerId>> pinned_;
};

}  // namespace coopnet::strategy
