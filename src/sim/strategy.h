// The exchange-strategy interface.
//
// A Swarm owns exactly one ExchangeStrategy, which encodes the incentive
// mechanism under test: it decides where each free upload slot goes, whether
// deliveries arrive usable or encrypted ("locked", T-Chain), and reacts to
// deliveries and departures. Implementations live in src/strategy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/types.h"

namespace coopnet::util {
class ByteSink;
class ByteSource;
}  // namespace coopnet::util

namespace coopnet::sim {

class Swarm;

/// The callable a strategy returns for one of its timers. A plain
/// std::function: every strategy timer captures [this, &swarm], which fits
/// its inline buffer.
using SmallEventFn = std::function<void()>;

/// A strategy's decision for one free upload slot.
struct UploadAction {
  PeerId to = kNoPeer;
  PieceId piece = kNoPiece;
  /// Deliver encrypted; the receiver must reciprocate before the piece
  /// becomes usable (T-Chain).
  bool locked = false;
};

/// Incentive-mechanism hook points. All methods are invoked from inside the
/// simulation loop; implementations may call back into the Swarm's
/// strategy-facing API (start transfers, unlock pieces, schedule events).
class ExchangeStrategy {
 public:
  virtual ~ExchangeStrategy() = default;

  /// Called once before the run starts; use to schedule recurring timers
  /// (rechoke rounds, grace scans) on swarm.engine().
  virtual void attach(Swarm& swarm) { (void)swarm; }

  /// Picks the next upload for a compliant peer with a free slot, or
  /// nullopt to leave the slot idle (the swarm retries on the next
  /// trigger or retry tick). Never called for seeders or free-riders.
  ///
  /// Must be side-effect-free with respect to strategy state: a returned
  /// action can still fail the swarm's start preconditions. Commit any
  /// bookkeeping in on_upload_started, which fires only for transfers that
  /// actually began.
  virtual std::optional<UploadAction> next_upload(Swarm& swarm,
                                                  PeerId uploader) = 0;

  /// Called synchronously from inside Swarm::start_transfer once a
  /// transfer (from any uploader, including the seeder) has begun.
  virtual void on_upload_started(Swarm& swarm, const Transfer& transfer) {
    (void)swarm;
    (void)transfer;
  }

  /// Whether `target` is currently willing to accept a fresh delivery.
  /// T-Chain peers refuse when their reciprocation backlog is full, which
  /// is what caps their download rate at their upload capacity (Table I).
  virtual bool accepts_delivery(const Swarm& swarm, PeerId target) const {
    (void)swarm;
    (void)target;
    return true;
  }

  /// True when accepts_delivery admits every target at every moment. The
  /// swarm then skips the call (Swarm::needy_neighbors) and, with no
  /// incoming cap, picks a seeder's target by counting the hungry-leecher
  /// index (Swarm::seeder_action). The candidate lists, and so every draw,
  /// are the same either way. It must stay false for a strategy that
  /// overrides accepts_delivery -- including a wrapper that forwards it
  /// without forwarding this declaration, which keeps every call.
  virtual bool admits_everyone() const { return false; }

  /// Whether seeder uploads are delivered locked (T-Chain: yes -- chains
  /// start at the seeder).
  virtual bool seeder_delivers_locked() const { return false; }

  /// Called after a transfer completes and the payload is recorded
  /// (usable or locked per the transfer's flag).
  virtual void on_delivered(Swarm& swarm, const Transfer& transfer) {
    (void)swarm;
    (void)transfer;
  }

  virtual void on_peer_activated(Swarm& swarm, PeerId id) {
    (void)swarm;
    (void)id;
  }

  virtual void on_peer_left(Swarm& swarm, PeerId id) {
    (void)swarm;
    (void)id;
  }

  // --- fault-injection hooks (no-ops in a fault-free run) ----------------

  /// Called when a transfer aborts: loss, stall timeout, or an endpoint
  /// that churned mid-flight. `will_retry` is true when the swarm has
  /// queued a backoff retry of the same (from, to, piece); the terminal
  /// notification (`will_retry == false`) fires exactly once per transfer
  /// chain, when the swarm gives up. Strategies that track in-flight
  /// uploads must release that bookkeeping here.
  virtual void on_transfer_failed(Swarm& swarm, const Transfer& transfer,
                                  bool will_retry) {
    (void)swarm;
    (void)transfer;
    (void)will_retry;
  }

  /// Called when `id` abruptly departs mid-download (churn). The default
  /// treats the departure as permanent (same as on_peer_left); strategies
  /// whose state should survive a rejoin override this pair.
  virtual void on_peer_departed(Swarm& swarm, PeerId id, bool will_rejoin) {
    (void)will_rejoin;
    on_peer_left(swarm, id);
  }

  /// Called when a churned peer re-enters the swarm (piece set intact;
  /// incentive state per the strategy's departure handling). The default
  /// treats the rejoiner as a fresh activation.
  virtual void on_peer_rejoined(Swarm& swarm, PeerId id) {
    on_peer_activated(swarm, id);
  }

  // --- checkpoint hooks (see sim/checkpoint.h) ---------------------------
  // Every mechanism must be explicit about its checkpoint story: stateful
  // strategies keep per-peer state in PeerId-indexed arrays and serialize
  // it in ascending id order (see util/byteio.h); genuinely stateless
  // ones override with documented no-ops. The defaults here serve
  // base-class completeness only.

  /// Serializes all mutable strategy state into `sink`.
  virtual void checkpoint_save(util::ByteSink& sink) const { (void)sink; }

  /// Restores state serialized by checkpoint_save. `swarm` provides
  /// population shape for validation; throws util::SerializeError on a
  /// malformed payload (including ids that are not strictly ascending or
  /// not below the population), before any strategy state changes.
  virtual void checkpoint_load(util::ByteSource& src, const Swarm& swarm) {
    (void)src;
    (void)swarm;
  }

  /// Returns the body of the recurring timer attach() scheduled, as
  /// identified by the strategy-local sub-id a kEvStrategyTimer tag
  /// carries; Swarm::dispatch calls it when such a tag fires, and a
  /// checkpoint restore calls it once per restored timer tag to check the
  /// sub-id. Strategies that schedule no timers keep the throwing default:
  /// reaching it means a tag carried a timer the mechanism does not own.
  virtual SmallEventFn rebuild_timer(Swarm& swarm, std::uint32_t sub) {
    (void)swarm;
    throw std::logic_error(
        "ExchangeStrategy::rebuild_timer: strategy schedules no timers "
        "but a snapshot carried timer sub-id " +
        std::to_string(sub));
  }
};

}  // namespace coopnet::sim
