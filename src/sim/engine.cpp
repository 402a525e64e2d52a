#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace coopnet::sim {

namespace {
/// Tag written for untagged schedules while tags are enabled: kind 0
/// poisons a later snapshot_queue() with an actionable error instead of
/// silently checkpointing an event that cannot be rebuilt.
const EventTag kUntagged{};
}  // namespace

void SimEngine::schedule(Seconds delay, EventFn fn) {
  if (delay < 0.0) throw std::invalid_argument("SimEngine: negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void SimEngine::schedule_at(Seconds at, EventFn fn) {
  if (at < now_) {
    throw std::invalid_argument("SimEngine: scheduling into the past");
  }
  if (!fn) throw std::invalid_argument("SimEngine: empty event");
  push_entry(at, next_seq_++, std::move(fn), kUntagged);
}

void SimEngine::schedule_tagged(Seconds delay, const EventTag& tag,
                                EventFn fn) {
  if (delay < 0.0) throw std::invalid_argument("SimEngine: negative delay");
  schedule_at_tagged(now_ + delay, tag, std::move(fn));
}

void SimEngine::schedule_at_tagged(Seconds at, const EventTag& tag,
                                   EventFn fn) {
  if (at < now_) {
    throw std::invalid_argument("SimEngine: scheduling into the past");
  }
  if (!fn) throw std::invalid_argument("SimEngine: empty event");
  if (tags_enabled_ && tag.kind == 0) {
    throw std::invalid_argument("SimEngine: tagged schedule with kind 0");
  }
  push_entry(at, next_seq_++, std::move(fn), tag);
}

void SimEngine::push_entry(Seconds at, std::uint64_t seq, EventFn fn,
                           const EventTag& tag) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(fn));
  }
  if (tags_enabled_) {
    // Every push overwrites the slot's tag (untagged pushes with the
    // poison kind-0 tag), so a reused slot can never leak a stale tag
    // into a snapshot.
    if (slot >= tags_.size()) tags_.resize(pool_.size());
    tags_[slot] = tag;
  }
  const Meta m{seq, slot};
  // Grow both halves, then sift the new entry up from the first free leaf.
  times_.push_back(at);
  meta_.push_back(m);
  sift_up(times_.size() - 1, at, m);
}

SimEngine::EventFn SimEngine::pop_top(Seconds& top_time) {
  top_time = times_[kRoot];
  const std::uint32_t slot = meta_[kRoot].slot;
  // Staged prefetch: the popped callback was written at schedule time,
  // typically megabytes of event traffic ago. Request its pool line now so
  // it travels while the sift-down runs, then (once that line is here)
  // request any spilled capture block before the caller invokes.
  __builtin_prefetch(&pool_[slot]);
  const Seconds last_time = times_.back();
  const Meta last_meta = meta_.back();
  times_.pop_back();
  meta_.pop_back();
  if (times_.size() > kRoot) sift_down_from_root(last_time, last_meta);
  pool_[slot].prefetch_target();
  EventFn fn = std::move(pool_[slot]);
  free_slots_.push_back(slot);
  return fn;
}

void SimEngine::sift_up(std::size_t i, Seconds time, Meta m) {
  while (i > kRoot) {
    const std::size_t parent = i / 4 + 2;
    const Seconds pt = times_[parent];
    if (pt < time || (pt == time && meta_[parent].seq < m.seq)) break;
    times_[i] = pt;
    meta_[i] = meta_[parent];
    i = parent;
  }
  times_[i] = time;
  meta_[i] = m;
}

void SimEngine::sift_down_from_root(Seconds time, Meta m) {
  const std::size_t n = times_.size();
  std::size_t i = kRoot;
  for (;;) {
    const std::size_t first = 4 * i - 8;
    if (first >= n) break;
    // Min of up to four sibling keys -- one aligned 32-byte span of times_.
    std::size_t best = first;
    Seconds bt = times_[first];
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      const Seconds ct = times_[c];
      if (ct < bt || (ct == bt && meta_[c].seq < meta_[best].seq)) {
        best = c;
        bt = ct;
      }
    }
    if (time < bt || (time == bt && m.seq < meta_[best].seq)) break;
    times_[i] = bt;
    meta_[i] = meta_[best];
    i = best;
  }
  times_[i] = time;
  meta_[i] = m;
}

void SimEngine::set_event_limit(std::uint64_t limit) {
  event_limit_ = limit;
  limit_hit_ = false;
  supervised_ = event_limit_ != 0 || guard_every_ != 0;
}

void SimEngine::set_guard(std::uint64_t every, std::function<void()> fn) {
  if (every == 0 || !fn) {
    guard_every_ = 0;
    guard_fn_ = nullptr;
  } else {
    guard_every_ = every;
    guard_fn_ = std::move(fn);
  }
  guard_tick_ = 0;
  supervised_ = event_limit_ != 0 || guard_every_ != 0;
}

void SimEngine::after_event() {
  if (event_limit_ != 0 && processed_ >= event_limit_) {
    limit_hit_ = true;
    stopped_ = true;  // sticky, like stop(): later runs stay cancelled
    return;
  }
  if (guard_every_ != 0 && ++guard_tick_ >= guard_every_) {
    guard_tick_ = 0;
    guard_fn_();
  }
}

void SimEngine::enable_tags() {
  if (tags_enabled_) return;
  if (times_.size() > kRoot) {
    throw std::logic_error(
        "SimEngine::enable_tags: events are already queued; tags for "
        "them cannot be reconstructed, so checkpointing must be enabled "
        "before any scheduling");
  }
  tags_.assign(pool_.size(), EventTag{});
  tags_enabled_ = true;
}

std::vector<SimEngine::QueueEntry> SimEngine::snapshot_queue() const {
  if (!tags_enabled_) {
    throw std::logic_error(
        "SimEngine::snapshot_queue: tags were never enabled");
  }
  std::vector<QueueEntry> entries;
  entries.reserve(times_.size() - kRoot);
  for (std::size_t i = kRoot; i < times_.size(); ++i) {
    QueueEntry e;
    e.time = times_[i];
    e.seq = meta_[i].seq;
    e.tag = tags_[meta_[i].slot];
    if (e.tag.kind == 0) {
      throw std::logic_error(
          "SimEngine::snapshot_queue: queued event seq " +
          std::to_string(e.seq) + " at t=" + std::to_string(e.time) +
          " was scheduled without a tag and cannot be rebuilt on "
          "restore");
    }
    entries.push_back(e);
  }
  // Heap layout depends on insertion history, which chunked runs and
  // restores may vary; (time, seq) order is the canonical, history-free
  // form every equivalent run serializes identically.
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              return a.time < b.time ||
                     (a.time == b.time && a.seq < b.seq);
            });
  return entries;
}

void SimEngine::restore_entry(const QueueEntry& entry, EventFn fn) {
  if (!tags_enabled_) {
    throw std::logic_error(
        "SimEngine::restore_entry: tags must be enabled before restore");
  }
  if (!fn) throw std::invalid_argument("SimEngine: empty restored event");
  if (entry.tag.kind == 0) {
    throw std::invalid_argument(
        "SimEngine::restore_entry: kind-0 tag");
  }
  // The ORIGINAL seq, not next_seq_: a restored entry must sort exactly
  // where it did in the snapshotted run, or the queue would replay in a
  // different order than the uninterrupted run.
  push_entry(entry.time, entry.seq, std::move(fn), entry.tag);
}

void SimEngine::run() {
  while (times_.size() > kRoot && !stopped_) {
    Seconds at;
    // The slot is freed inside pop_top before the call: the callback may
    // schedule new events (growing the pool), so it runs from this local.
    EventFn fn = pop_top(at);
    now_ = at;
    ++processed_;
    fn();
    if (supervised_) after_event();
  }
}

void SimEngine::run_until(Seconds deadline) {
  while (times_.size() > kRoot && !stopped_ && times_[kRoot] <= deadline) {
    Seconds at;
    EventFn fn = pop_top(at);
    now_ = at;
    ++processed_;
    fn();
    if (supervised_) after_event();
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace coopnet::sim
