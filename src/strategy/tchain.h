// T-Chain (reciprocity/reputation hybrid, Section III-A; Shin et al. 2015).
//
// Every delivery -- including the seeder's -- arrives encrypted ("locked").
// The receiver must reciprocate before the sender releases the decryption
// key: directly back to the sender when the sender needs one of the
// receiver's pieces, otherwise indirectly by forwarding the received
// (still-encrypted) payload to a third user the sender designates. Each
// forward creates the next link of the chain; keys propagate down the chain
// as senders themselves get unlocked.
//
// Incentive consequences reproduced here:
//   * compliant peers' download rates are capped by their reciprocation
//     capacity (accepts_delivery bounds the obligation backlog), giving
//     Table I's d_i = U_i;
//   * plain free-riders never reciprocate, so their pieces never unlock --
//     zero exploitable resources (Table III);
//   * colluding free-riders exploit indirect reciprocity: when the
//     designated third party is a fellow colluder it falsely confirms
//     receipt and the sender releases the key for free (Section IV-C);
//   * at the endgame a compliant peer can be unable to reciprocate (nobody
//     needs anything); after `tchain_grace` seconds the sender releases the
//     key anyway, modeling T-Chain's key publication when a swarm drains.
//     Free-riders never receive this grace: they visibly refuse to
//     reciprocate rather than lacking the opportunity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/strategy.h"

namespace coopnet::strategy {

class TChainStrategy final : public sim::ExchangeStrategy {
 public:
  void attach(sim::Swarm& swarm) override;
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override;
  void on_upload_started(sim::Swarm& swarm,
                         const sim::Transfer& transfer) override;
  bool accepts_delivery(const sim::Swarm& swarm,
                        sim::PeerId target) const override;
  bool seeder_delivers_locked() const override { return true; }
  void on_delivered(sim::Swarm& swarm,
                    const sim::Transfer& transfer) override;
  /// When an obligation-discharging upload is abandoned (not merely queued
  /// for retry), the duty moves back into the obligations queue so the
  /// peer can repay through another route.
  void on_transfer_failed(sim::Swarm& swarm, const sim::Transfer& transfer,
                          bool will_retry) override;

  /// Obligations currently queued at a peer (exposed for tests/metrics).
  std::size_t backlog(sim::PeerId id) const {
    return state_[id].obligations.size() + state_[id].in_flight.size();
  }

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  // Serializes every mutable member: each peer's obligation queue,
  // in-flight duties, chain links and downstream waiters (non-empty peers,
  // in ascending id order), the attach-derived limits, and the staged
  // plan; next_upload's scratch (scan_) is not state. Timer sub 0 is the
  // grace scan.
  void checkpoint_save(util::ByteSink& sink) const override;
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override;
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override;

 private:
  /// A reciprocation duty: `piece` arrived locked from `designator`, which
  /// suggested repaying toward `suggested_target` (kNoPeer = no hint).
  struct Obligation {
    sim::PieceId piece = sim::kNoPiece;
    sim::PeerId designator = sim::kNoPeer;
    sim::PeerId suggested_target = sim::kNoPeer;
    sim::Seconds created = 0.0;
  };

  /// One link of a chain, held by its receiver: the receiver holds
  /// `piece` locked, delivered by `sender`; `fulfilled` once the receiver
  /// reciprocated (or was excused).
  struct ChainLink {
    sim::PieceId piece = sim::kNoPiece;
    sim::PeerId sender = sim::kNoPeer;
    bool fulfilled = false;
  };

  /// An obligation being discharged by the in-flight upload of `piece` to
  /// `to`. Carries the original obligation's fields so an abandoned upload
  /// (fault injection) can requeue the duty intact.
  struct InFlightDuty {
    sim::PeerId to = sim::kNoPeer;
    sim::PieceId piece = sim::kNoPiece;
    sim::PieceId unlocks = sim::kNoPiece;
    sim::PeerId designator = sim::kNoPeer;
    sim::PeerId suggested_target = sim::kNoPeer;
  };

  struct PeerState {
    std::vector<Obligation> obligations;  // oldest first
    /// Obligation uploads in flight, one per (to, piece).
    std::vector<InFlightDuty> in_flight;
    /// Links this peer holds as receiver, one per piece.
    std::vector<ChainLink> links;
    /// (receiver, piece) links, in creation order, that wait for this
    /// peer's key as their sender.
    std::vector<std::pair<sim::PeerId, sim::PieceId>> downstream;

    bool empty() const {
      return obligations.empty() && in_flight.empty() && links.empty() &&
             downstream.empty();
    }
  };

  /// Plans the upload that would discharge `ob` for peer `p`, if any.
  std::optional<sim::UploadAction> plan_obligation(sim::Swarm& swarm,
                                                   sim::PeerId p,
                                                   const Obligation& ob);
  bool can_deliver(const sim::Swarm& swarm, sim::PeerId target,
                   sim::PieceId piece) const;
  /// The one pass over `uploader`'s neighbors that a next_upload call
  /// plans from: fills scan_.admitted and forgets the needy lists.
  void scan_neighbors(const sim::Swarm& swarm, sim::PeerId uploader);
  /// Swarm::needy_neighbors(uploader, include_locked_offer), built from
  /// that pass at most once per next_upload call.
  const std::vector<sim::PeerId>& needy_neighbors(sim::Swarm& swarm,
                                                  sim::PeerId uploader,
                                                  bool include_locked_offer);
  /// Marks the link for (receiver, piece) fulfilled and unlocks it if the
  /// sender already holds the key; cascades down the chain.
  void resolve_fulfilled(sim::Swarm& swarm, sim::PeerId receiver,
                         sim::PieceId piece);
  void try_unlock(sim::Swarm& swarm, sim::PeerId receiver,
                  sim::PieceId piece);
  void grace_scan(sim::Swarm& swarm);
  void drop_obligation(sim::PeerId p, sim::PieceId piece);
  static std::vector<InFlightDuty>::iterator find_in_flight(
      PeerState& st, const sim::Transfer& t);

  std::vector<PeerState> state_;  // indexed by PeerId, sized by attach()
  std::size_t max_backlog_ = 5;
  sim::Seconds grace_ = 30.0;
  /// Staged by next_upload, committed by on_upload_started.
  struct PendingPlan {
    sim::PeerId from = sim::kNoPeer;
    sim::PeerId to = sim::kNoPeer;
    sim::PieceId piece = sim::kNoPiece;
    sim::PieceId unlocks = sim::kNoPiece;  // kNoPiece = opportunistic seed
    bool valid = false;
  };
  PendingPlan pending_plan_;

  /// next_upload's scratch, reused across calls. Within one call no peer
  /// or strategy state changes (the planner only draws RNG), so every
  /// neighbor's admission verdict is computed once per call instead of
  /// once per obligation. Neither strategy state nor checkpointed.
  struct NeighborScan {
    /// The active, non-seeder neighbors that accepts_delivery admits, in
    /// neighbor order.
    std::vector<sim::PeerId> admitted;
    std::vector<sim::PeerId> candidates;  // one obligation's forward targets
    /// needy_neighbors lists by offer lane (0: pieces, 1: transferable).
    std::vector<sim::PeerId> needy[2];
    bool needy_built[2] = {false, false};  // in the current call
  };
  NeighborScan scan_;
};

}  // namespace coopnet::strategy
