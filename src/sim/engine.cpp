#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace coopnet::sim {

namespace {
void require_kind(const EventTag& tag, const char* what) {
  if (tag.kind == 0) {
    throw std::invalid_argument(std::string("SimEngine::") + what +
                                ": kind-0 tag");
  }
}
}  // namespace

void SimEngine::schedule(Seconds delay, const EventTag& tag) {
  if (delay < 0.0) throw std::invalid_argument("SimEngine: negative delay");
  schedule_at(now_ + delay, tag);
}

void SimEngine::schedule_at(Seconds at, const EventTag& tag) {
  if (at < now_) {
    throw std::invalid_argument("SimEngine: scheduling into the past");
  }
  require_kind(tag, "schedule");
  push_entry(at, next_seq_++, tag);
}

void SimEngine::push_entry(Seconds at, std::uint64_t seq,
                           const EventTag& tag) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = tag;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(tag);
  }
  const Meta m{seq, slot};
  // Grow both halves, then sift the new entry up from the first free leaf.
  times_.push_back(at);
  meta_.push_back(m);
  sift_up(times_.size() - 1, at, m);
}

EventTag SimEngine::pop_top() {
  now_ = times_[kRoot];
  const std::uint32_t slot = meta_[kRoot].slot;
  // The popped tag was written at schedule time, typically megabytes of
  // event traffic ago: request its pool line now so it travels while the
  // sift-down runs.
  __builtin_prefetch(&pool_[slot]);
  const Seconds last_time = times_.back();
  const Meta last_meta = meta_.back();
  times_.pop_back();
  meta_.pop_back();
  if (times_.size() > kRoot) sift_down_from_root(last_time, last_meta);
  free_slots_.push_back(slot);
  return pool_[slot];
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

std::vector<SimEngine::QueueEntry> SimEngine::snapshot_queue() const {
  std::vector<QueueEntry> entries;
  entries.reserve(times_.size() - kRoot);
  for (std::size_t i = kRoot; i < times_.size(); ++i) {
    QueueEntry e;
    e.time = times_[i];
    e.seq = meta_[i].seq;
    e.tag = pool_[meta_[i].slot];
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

void SimEngine::restore_entry(const QueueEntry& entry) {
  require_kind(entry.tag, "restore_entry");
  // The ORIGINAL seq, not next_seq_: a restored entry must sort exactly
  // where it did in the snapshotted run, or the queue would replay in a
  // different order than the uninterrupted run.
  push_entry(entry.time, entry.seq, entry.tag);
}

}  // namespace coopnet::sim
