// Discrete-event simulation engine.
//
// An implicit 4-ary heap over a slab-allocated pool of SmallEventFn
// callbacks. Ties break in scheduling order (seq); because (time, seq) is
// a strict total order, every pop yields the global minimum, so pop order
// is identical to the seed std::priority_queue implementation no matter
// the heap layout -- sim/reference_engine.h keeps that implementation
// in-tree as the differential-test oracle and the in-binary benchmark
// baseline.
//
// Why this shape: the hot loop is schedule/pop churn at millions of events
// per run. The 4-ary heap halves tree depth versus a binary heap; the key
// and payload halves of each entry live in parallel arrays (times_ /
// meta_) so a sift-down level compares four adjacent doubles in one
// 32-byte span instead of dragging seq+slot through the cache; callbacks
// stay put in the pool slab (no std::function copy per pop, no malloc per
// transfer-completion closure -- see event_fn.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_fn.h"
#include "sim/types.h"

namespace coopnet::sim {

/// Opaque-to-the-engine description of WHAT a queued event does, carried
/// alongside the (unserializable) callback so a checkpoint can persist
/// the queue and a restore can re-register an equivalent closure. The
/// meaning of every field is owned by the scheduler (see the EventKind
/// enum in sim/event_kinds.h); kind == 0 marks "untagged", which
/// snapshot_queue() rejects. POD on purpose: serialization is a
/// field-by-field copy, no pointers, no lifetime.
struct EventTag {
  std::uint32_t kind = 0;
  std::uint32_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
  double x = 0.0, y = 0.0;
  std::int64_t n = 0;
};

/// Discrete-event engine: schedule callbacks, then run until the queue
/// drains, a deadline passes, or stop() is called from inside an event.
class SimEngine {
 public:
  using EventFn = SmallEventFn;

  /// One queued event as seen by a checkpoint: its heap key (time, seq)
  /// and descriptive tag. The callback itself is NOT here -- restore
  /// rebuilds it from the tag via the scheduler's dispatcher.
  struct QueueEntry {
    Seconds time;
    std::uint64_t seq;
    EventTag tag;
  };

  /// Current simulation time (seconds). Starts at 0.
  Seconds now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now. Requires delay >= 0.
  void schedule(Seconds delay, EventFn fn);

  /// Schedules `fn` at absolute time `at`. Requires at >= now().
  void schedule_at(Seconds at, EventFn fn);

  /// Runs events until the queue is empty or stop() is called. Returns
  /// immediately while a stop request is pending (see stop()).
  void run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances the clock to min(deadline, time of last executed event).
  /// Returns immediately (clock untouched) while a stop request is pending.
  void run_until(Seconds deadline);

  /// Requests the current run()/run_until() loop to return after the
  /// in-flight event finishes. The request is sticky: subsequent runs
  /// return immediately until reset_stop() clears it, so a stop raised
  /// inside an event cannot be silently swallowed by the next run call.
  void stop() { stopped_ = true; }

  /// Clears a pending stop request so the engine can run again.
  void reset_stop() { stopped_ = false; }

  bool stopped() const { return stopped_; }
  /// Events currently queued in the heap.
  std::size_t pending() const { return times_.size() - kRoot; }
  std::uint64_t events_processed() const { return processed_; }

  // --- cooperative supervision hooks (see exp/supervise.h) ---------------
  // Both hooks run on the cold after-event path, guarded by one branch in
  // the hot loops. Neither schedules events nor draws RNG, so a run whose
  // limits never trigger is bit-identical to an unsupervised run.

  /// Stops the run loops (sticky, exactly like stop()) once
  /// events_processed() reaches `limit`; 0 disables. The check runs after
  /// every event, so a budget-cancelled run stops after precisely `limit`
  /// events -- deterministic run-to-run. Setting a new limit clears the
  /// event_limit_hit() flag (but not a pending stop).
  void set_event_limit(std::uint64_t limit);
  /// True when the last stop was raised by the event limit (stop() and
  /// guard-initiated stops leave it false).
  bool event_limit_hit() const { return limit_hit_; }

  /// Installs `fn` to run after every `every`-th processed event; the
  /// guard may call stop() (wall-clock watchdogs, cancellation flags).
  /// It must not schedule events or draw from the simulation's RNG --
  /// either would perturb event sequence numbers or random streams and
  /// break the bit-identical-when-untriggered contract. `every == 0` or
  /// an empty fn removes the guard.
  void set_guard(std::uint64_t every, std::function<void()> fn);

  // --- checkpoint support (see sim/checkpoint.h) -------------------------
  // Callbacks cannot be serialized, so checkpointable runs tag every
  // scheduled event with an EventTag describing it; a restore walks the
  // serialized tags and re-registers equivalent closures under their
  // ORIGINAL (time, seq) keys, leaving pop order -- and therefore
  // every downstream byte -- unchanged. All of it is opt-in: with tags
  // disabled (the default) no tag is stored or copied and the engine is
  // byte-for-byte the pre-checkpoint engine.

  /// Turns tag bookkeeping on. Must be called while the queue is empty
  /// (tags for already-queued events cannot be reconstructed); throws
  /// std::logic_error otherwise. Tagging cannot be turned off.
  void enable_tags();
  bool tags_enabled() const { return tags_enabled_; }

  /// schedule()/schedule_at() carrying a descriptive tag. Requires
  /// tag.kind != 0 when tags are enabled; with tags disabled the tag is
  /// dropped (same event stream either way).
  void schedule_tagged(Seconds delay, const EventTag& tag, EventFn fn);
  void schedule_at_tagged(Seconds at, const EventTag& tag, EventFn fn);

  /// The queue's checkpoint view: every pending event's (time, seq, tag),
  /// sorted by the heap's own (time, seq) order so the serialized form is
  /// canonical across heap layouts. Requires tags enabled and every
  /// queued event tagged; throws std::logic_error when an untagged event
  /// would make the snapshot unrestorable.
  std::vector<QueueEntry> snapshot_queue() const;

  /// Re-inserts one snapshot entry with `fn` as its callback, preserving
  /// the exact original (time, seq). Restore-only: the caller owns
  /// seq consistency and must set_next_seq() past every restored seq.
  void restore_entry(const QueueEntry& entry, EventFn fn);

  /// The scheduling tie-break counter (seq of the NEXT scheduled event).
  /// Checkpoints persist it so a restored run numbers -- and therefore
  /// tie-breaks -- future events exactly like the uninterrupted run.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Restore-only clock/counter surgery. set_now may move time backward
  /// (an empty post-restore engine starts at 0); the others overwrite the
  /// scheduling tie-break counter and the processed-event count so a
  /// restored run continues the original numbering exactly.
  void set_now(Seconds t) { now_ = t; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }
  void set_processed(std::uint64_t n) { processed_ = n; }

 private:
  /// The heap root lives at index 3 (indices 0-2 are dead padding): with
  /// children of i at [4i-8, 4i-5], every sibling group starts at an index
  /// divisible by 4, so the four keys compared per sift-down level occupy
  /// one 32-byte span of times_ (a single cache line) and one 64-byte span
  /// of meta_. Parent of c is c/4 + 2.
  static constexpr std::size_t kRoot = 3;

  /// The non-key half of a heap entry: tie-break sequence + pool slot.
  struct Meta {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Supervision bookkeeping (event limit + guard cadence), kept out of
  /// the hot loop body behind the single `supervised_` branch.
  void after_event();

  /// Stores `fn` and `tag` in a pool slot and sifts (at, seq) into the
  /// heap. Scheduling passes next_seq_++; restore passes the original seq.
  void push_entry(Seconds at, std::uint64_t seq, EventFn fn,
                  const EventTag& tag);
  /// Pops the root entry, frees its pool slot, and returns the callback.
  /// The slot is released *before* the caller invokes the callback, so
  /// events scheduled from inside events reuse hot slots immediately.
  EventFn pop_top(Seconds& top_time);
  void sift_up(std::size_t i, Seconds time, Meta m);
  void sift_down_from_root(Seconds time, Meta m);

  // Parallel halves of the implicit 4-ary heap: times_[i] / meta_[i] form
  // one entry (strict total order on (time, seq), matching the seed
  // comparator). Kept split so the compare-heavy sift loops stay in the
  // times_ cache lines.
  std::vector<Seconds> times_ = std::vector<Seconds>(kRoot, 0.0);
  std::vector<Meta> meta_ = std::vector<Meta>(kRoot, Meta{0, 0});
  std::vector<EventFn> pool_;
  std::vector<std::uint32_t> free_slots_;
  /// Checkpoint tags, indexed by pool slot (empty until enable_tags();
  /// then kept in lockstep with pool_, so every queued slot has the tag
  /// of its current occupant).
  std::vector<EventTag> tags_;
  bool tags_enabled_ = false;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;

  // Supervision state (cold; only `supervised_` is read per event).
  std::function<void()> guard_fn_;
  std::uint64_t event_limit_ = 0;
  std::uint64_t guard_every_ = 0;
  std::uint64_t guard_tick_ = 0;
  bool limit_hit_ = false;
  bool supervised_ = false;
};

}  // namespace coopnet::sim
