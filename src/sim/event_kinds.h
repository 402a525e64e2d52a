// EventTag.kind vocabulary for the swarm's scheduled events.
//
// Every event the Swarm (or an attached strategy / metrics driver) queues
// is one of these kinds plus its arguments flattened into the tag's scalar
// fields. The engine never interprets them: it pops each tag and hands it
// to Swarm::dispatch, which switches on the kind. A checkpoint persists
// the queue as these same tags (see sim/checkpoint.h), so a restored queue
// is the original queue.
#pragma once

#include <cstdint>

#include "sim/engine.h"
#include "sim/types.h"

namespace coopnet::sim {

enum EventKind : std::uint32_t {
  kEvNone = 0,  // invalid; the engine rejects it at scheduling

  // Swarm-owned events. Field use per kind:
  kEvArrive = 1,            // a = peer id
  kEvTick = 2,              // a = peer id, b = epoch
  kEvTryFill = 3,           // a = peer id (request_refill's deferred fill)
  kEvCompleteTransfer = 4,  // Transfer (see make_transfer_tag)
  kEvFailLoss = 5,          // Transfer; fail_transfer(stalled=false)
  kEvFailStall = 6,         // Transfer; fail_transfer(stalled=true)
  kEvRetryTransfer = 7,     // Transfer
  kEvLingerDepart = 8,      // a = peer id
  kEvChurnCheck = 9,        // a = peer id, b = epoch
  kEvRejoin = 10,           // a = peer id
  kEvSeederOutageBegin = 11,
  kEvSeederOutageEnd = 12,
  kEvWhitewash = 13,
  kEvSybil = 14,

  // Delegated events: the tag's `a` is a sub-id local to the owner.
  // Strategy timers run through ExchangeStrategy::rebuild_timer; external
  // timers run the callback registered under that id by Swarm::add_timer
  // (RunMetrics registers first, so its sampler is sub 0).
  kEvStrategyTimer = 15,  // a = strategy-local sub-id
  kEvExternalTimer = 16,  // a = driver-local sub-id
};

/// Flattens a Transfer into a tag: every field of the struct maps to one
/// tag scalar, so transfer_from_tag is an exact inverse.
inline EventTag make_transfer_tag(std::uint32_t kind, const Transfer& t) {
  EventTag tag;
  tag.kind = kind;
  tag.a = t.from;
  tag.b = t.to;
  tag.c = t.piece;
  tag.d = static_cast<std::uint32_t>(t.attempt);
  tag.e = t.locked ? 1u : 0u;
  tag.f = t.from_epoch;
  tag.g = t.to_epoch;
  tag.x = t.start;
  tag.y = t.end;
  tag.n = t.bytes;
  return tag;
}

inline Transfer transfer_from_tag(const EventTag& tag) {
  Transfer t;
  t.from = tag.a;
  t.to = tag.b;
  t.piece = tag.c;
  t.attempt = static_cast<int>(tag.d);
  t.locked = tag.e != 0;
  t.from_epoch = tag.f;
  t.to_epoch = tag.g;
  t.start = tag.x;
  t.end = tag.y;
  t.bytes = tag.n;
  return t;
}

/// Tag for a single-peer event (arrive, try-fill, linger-depart, rejoin).
inline EventTag make_peer_tag(std::uint32_t kind, PeerId id) {
  EventTag tag;
  tag.kind = kind;
  tag.a = id;
  return tag;
}

/// Tag for a (peer, epoch) event (tick chains, churn checks).
inline EventTag make_epoch_tag(std::uint32_t kind, PeerId id,
                               std::uint32_t epoch) {
  EventTag tag;
  tag.kind = kind;
  tag.a = id;
  tag.b = epoch;
  return tag;
}

/// Tag with no payload (attack timers, seeder outage phases).
inline EventTag make_kind_tag(std::uint32_t kind) {
  EventTag tag;
  tag.kind = kind;
  return tag;
}

/// Tag for a delegated timer (kEvStrategyTimer / kEvExternalTimer).
inline EventTag make_timer_tag(std::uint32_t kind, std::uint32_t sub) {
  EventTag tag;
  tag.kind = kind;
  tag.a = sub;
  return tag;
}

}  // namespace coopnet::sim
