// Discrete-event simulation engine.
//
// Pending events live in two kinds of queue over one slab-allocated pool of
// EventTags: an implicit 4-ary heap, and up to kMaxLanes FIFO "lanes", one
// per recurring fixed delay. Ties break in scheduling order (seq); because
// (time, seq) is a strict total order, every pop yields the global minimum,
// so pop order is identical to the seed std::priority_queue implementation
// no matter how events are split between the queues -- sim/reference_engine.h
// keeps that implementation in-tree as the differential-test oracle and the
// in-binary benchmark baseline.
//
// Why lanes are sorted: every entry of a lane was queued by schedule() with
// that lane's exact delay d, at a clock that never decreases, and rounding
// makes now + d monotonic in now; seq only grows. So appending keeps a lane
// in (time, seq) order by construction, and a pop only compares the heap
// root with the lane heads. What goes to the heap: schedule_at(),
// restore_entry(), and every schedule() whose delay holds no lane. A delay
// gets a lane on its second sighting in a small table of recent delays
// (continuous delays -- churn, loss failure points -- never recur, so they
// pay one table probe and stay in the heap); an empty lane is reused for
// the next recurring delay once all lanes are taken.
//
// Events are plain data: the engine stores each event's EventTag and hands
// it, when popped, to the dispatcher the caller passes to run() /
// run_until() (for the simulator, Swarm::dispatch). So the queue a
// checkpoint serializes is the queue that executes; nothing is rebuilt.
//
// Why this shape: the hot loop is schedule/pop churn at millions of events
// per run, and nearly all simulator events use one of a handful of delays
// (the retry tick, one piece time per capacity class, the rechoke period).
// A lane push or pop is O(1) and touches one chunk slot, where a heap
// operation walks log4(n) levels of a heap that reaches tens of thousands
// of entries. The 4-ary heap halves tree depth versus a binary heap; the key
// and payload halves of each entry live in parallel arrays (times_ /
// meta_) so a sift-down level compares four adjacent doubles in one
// 32-byte span instead of dragging seq+slot through the cache. Lane and heap
// entries hold only (time, seq, pool slot): tags stay put in the pool slab
// and are copied out once per pop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/types.h"

namespace coopnet::sim {

/// One scheduled event: WHAT it does, as plain data. The meaning of every
/// field is owned by the scheduler (see the EventKind enum in
/// sim/event_kinds.h); the engine only stores the tag and passes it to the
/// dispatcher. kind == 0 is invalid and rejected at scheduling. POD on
/// purpose: serialization is a field-by-field copy, no pointers, no
/// lifetime.
struct EventTag {
  std::uint32_t kind = 0;
  std::uint32_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
  double x = 0.0, y = 0.0;
  std::int64_t n = 0;
};

/// Discrete-event engine: schedule tags, then run until the queue drains,
/// a deadline passes, or stop() is called from inside an event.
class SimEngine {
 public:
  /// One queued event as seen by a checkpoint: its heap key (time, seq)
  /// and its tag. Restore re-inserts it under the same key.
  struct QueueEntry {
    Seconds time;
    std::uint64_t seq;
    EventTag tag;
  };

  /// Current simulation time (seconds). Starts at 0.
  Seconds now() const { return now_; }

  /// Queues `tag` to fire `delay` seconds from now. Requires delay >= 0
  /// and tag.kind != 0.
  void schedule(Seconds delay, const EventTag& tag);

  /// Queues `tag` at absolute time `at`. Requires at >= now() and
  /// tag.kind != 0.
  void schedule_at(Seconds at, const EventTag& tag);

  /// Runs events until the queue is empty or stop() is called, handing
  /// each popped tag to `dispatch(const EventTag&)`. Returns immediately
  /// while a stop request is pending (see stop()).
  template <typename Dispatch>
  void run(Dispatch&& dispatch) {
    while (!stopped_) {
      const std::size_t src = next_source();
      if (src == kEmpty) break;
      fire(src, dispatch);
    }
  }

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances the clock to min(deadline, time of last executed event).
  /// Returns immediately (clock untouched) while a stop request is pending.
  template <typename Dispatch>
  void run_until(Seconds deadline, Dispatch&& dispatch) {
    while (!stopped_) {
      const std::size_t src = next_source();
      if (src == kEmpty || !(time_of(src) <= deadline)) break;
      fire(src, dispatch);
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
  }

  /// Requests the current run()/run_until() loop to return after the
  /// in-flight event finishes. The request is sticky: subsequent runs
  /// return immediately until reset_stop() clears it, so a stop raised
  /// inside an event cannot be silently swallowed by the next run call.
  void stop() { stopped_ = true; }

  /// Clears a pending stop request so the engine can run again.
  void reset_stop() { stopped_ = false; }

  bool stopped() const { return stopped_; }
  /// Events currently queued (heap and lanes).
  std::size_t pending() const { return times_.size() - kRoot + in_lanes_; }
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
  // The queue is already data, so a checkpoint copies out every pending
  // (time, seq, tag) and a restore re-inserts them under their ORIGINAL
  // keys, leaving pop order -- and therefore every downstream byte --
  // unchanged.

  /// The queue's checkpoint view: every pending event's (time, seq, tag),
  /// sorted by the heap's own (time, seq) order so the serialized form is
  /// canonical across heap layouts.
  std::vector<QueueEntry> snapshot_queue() const;

  /// Re-inserts one snapshot entry, preserving the exact original
  /// (time, seq). Requires entry.tag.kind != 0. Restore-only: the caller
  /// owns seq consistency and must set_next_seq() past every restored seq.
  void restore_entry(const QueueEntry& entry);

  /// The scheduling tie-break counter (seq of the NEXT scheduled event).
  /// Checkpoints persist it so a restored run numbers -- and therefore
  /// tie-breaks -- future events exactly like the uninterrupted run.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Restore-only clock/counter surgery. set_now may move time backward
  /// (an empty post-restore engine starts at 0), so it requires an empty
  /// engine -- a lane is only sorted while the clock never decreases -- and
  /// throws std::logic_error otherwise. The others overwrite the scheduling
  /// tie-break counter and the processed-event count so a restored run
  /// continues the original numbering exactly.
  void set_now(Seconds t);
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

  /// Most delays that can hold a lane at once. The simulator uses about
  /// nine recurring delays; the cap bounds the per-schedule lane lookup.
  static constexpr std::size_t kMaxLanes = 16;
  /// Size of the direct-mapped table of recently seen non-lane delays.
  static constexpr std::size_t kRecentDelays = 32;
  /// next_source() results besides a lane index.
  static constexpr std::size_t kHeap = kMaxLanes;
  static constexpr std::size_t kEmpty = kMaxLanes + 1;

  /// One lane entry: the heap key plus the tag's pool slot.
  struct LaneEntry {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Lane entries live in fixed-size chunks drawn from one shared free
  /// list, so lanes that peak at different moments reuse each other's
  /// memory and together hold about as much as the heap would.
  static constexpr std::uint32_t kChunk = 256;
  static constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;

  /// A lane: a FIFO of chunks linked through chunk_next_, read at
  /// (head, head_pos) and written at (tail, tail_pos). A lane keeps its
  /// last chunk when it empties. (time, seq) of the head entry is cached
  /// here, so comparing lane heads reads only this array.
  struct Lane {
    Seconds head_time = 0.0;
    std::uint64_t head_seq = 0;
    std::size_t size = 0;
    std::uint32_t head = kNoChunk;
    std::uint32_t tail = kNoChunk;
    std::uint32_t head_pos = 0;
    std::uint32_t tail_pos = 0;
  };

  const LaneEntry& front(const Lane& l) const {
    return chunks_[l.head][l.head_pos];
  }

  /// Where the (time, seq)-minimum pending event is: a lane index, kHeap,
  /// or kEmpty when nothing is queued.
  std::size_t next_source() const {
    const bool heap = times_.size() > kRoot;
    if (best_lane_ == kEmpty) return heap ? kHeap : kEmpty;
    if (!heap) return best_lane_;
    const Lane& l = lanes_[best_lane_];
    const Seconds t = times_[kRoot];
    return l.head_time < t ||
                   (l.head_time == t && l.head_seq < meta_[kRoot].seq)
               ? best_lane_
               : kHeap;
  }
  /// Time of the head event of `src` (a lane index or kHeap).
  Seconds time_of(std::size_t src) const {
    return src == kHeap ? times_[kRoot] : lanes_[src].head_time;
  }

  /// Pops the head event of `src`, advances the clock to it, and
  /// dispatches it. The tag is a local copy: its pool slot is already
  /// free, and the dispatcher may schedule new events (reusing or growing
  /// the pool).
  template <typename Dispatch>
  void fire(std::size_t src, Dispatch& dispatch) {
    const EventTag tag = src == kHeap ? pop_top() : pop_lane(src);
    ++processed_;
    dispatch(tag);
    if (supervised_) after_event();
  }

  /// Supervision bookkeeping (event limit + guard cadence), kept out of
  /// the hot loop body behind the single `supervised_` branch.
  void after_event();

  /// Stores `tag` in a free pool slot and returns the slot.
  std::uint32_t store(const EventTag& tag);
  /// Frees `slot` and returns its tag. The slot is released before the
  /// event is dispatched, so events scheduled from inside events reuse hot
  /// slots immediately.
  EventTag release(std::uint32_t slot);

  /// The lane that holds `delay`, opening one if `delay` recurs and a lane
  /// is free; kHeap when the event goes to the heap.
  std::size_t lane_for(Seconds delay);
  /// Appends (at, next_seq_++, tag) to `lane`.
  void push_lane(std::size_t lane, Seconds at, const EventTag& tag);
  /// Pops the head of `lane`, moves the clock to it and returns its tag.
  EventTag pop_lane(std::size_t lane);
  /// A free chunk of chunks_, reused or appended.
  std::uint32_t new_chunk();
  /// Recomputes best_lane_ from the lane heads.
  void find_best_lane();

  /// Stores `tag` in a pool slot and sifts (at, seq) into the heap.
  /// Scheduling passes next_seq_++; restore passes the original seq.
  void push_entry(Seconds at, std::uint64_t seq, const EventTag& tag);
  /// Pops the root entry, moves the clock to its time, and returns its tag.
  EventTag pop_top();
  void sift_up(std::size_t i, Seconds time, Meta m);
  void sift_down_from_root(Seconds time, Meta m);

  // Parallel halves of the implicit 4-ary heap: times_[i] / meta_[i] form
  // one entry (strict total order on (time, seq), matching the seed
  // comparator). Kept split so the compare-heavy sift loops stay in the
  // times_ cache lines.
  std::vector<Seconds> times_ = std::vector<Seconds>(kRoot, 0.0);
  std::vector<Meta> meta_ = std::vector<Meta>(kRoot, Meta{0, 0});
  std::vector<EventTag> pool_;
  std::vector<std::uint32_t> free_slots_;

  // Fixed-delay lanes. lane_delay_[k] is lane k's delay for k < n_lanes_;
  // recent_ remembers non-lane delays (NaN = no entry, which equals no
  // delay). best_lane_ is the lane with the (time, seq)-minimum head, or
  // kEmpty when every lane is empty. chunks_[c] is one chunk of kChunk
  // entries, chunk_next_[c] the chunk after it in its lane, and
  // free_chunks_ lists the chunks no lane holds.
  std::array<Lane, kMaxLanes> lanes_;
  std::vector<std::vector<LaneEntry>> chunks_;
  std::vector<std::uint32_t> chunk_next_;
  std::vector<std::uint32_t> free_chunks_;
  std::array<Seconds, kMaxLanes> lane_delay_{};
  std::array<Seconds, kRecentDelays> recent_ = [] {
    std::array<Seconds, kRecentDelays> none;
    none.fill(std::numeric_limits<Seconds>::quiet_NaN());
    return none;
  }();
  std::size_t n_lanes_ = 0;
  std::size_t in_lanes_ = 0;
  std::size_t best_lane_ = kEmpty;
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
