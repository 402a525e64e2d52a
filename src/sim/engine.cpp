#include "sim/engine.h"

#include <algorithm>
#include <cstring>
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
  require_kind(tag, "schedule");
  const std::size_t lane = lane_for(delay);
  if (lane == kHeap) {
    push_entry(now_ + delay, next_seq_++, tag);
  } else {
    push_lane(lane, now_ + delay, tag);
  }
}

void SimEngine::schedule_at(Seconds at, const EventTag& tag) {
  if (at < now_) {
    throw std::invalid_argument("SimEngine: scheduling into the past");
  }
  require_kind(tag, "schedule");
  push_entry(at, next_seq_++, tag);
}

std::uint32_t SimEngine::store(const EventTag& tag) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = tag;
    return slot;
  }
  pool_.push_back(tag);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

EventTag SimEngine::release(std::uint32_t slot) {
  free_slots_.push_back(slot);
  return pool_[slot];
}

std::size_t SimEngine::lane_for(Seconds delay) {
  for (std::size_t k = 0; k < n_lanes_; ++k) {
    if (lane_delay_[k] == delay) return k;
  }
  // First sighting: remember the delay and use the heap. A continuous
  // delay never comes back, so it never takes a lane.
  std::uint64_t bits;
  std::memcpy(&bits, &delay, sizeof bits);
  Seconds& recent = recent_[(bits * 0x9E3779B97F4A7C15ULL) >> 59];
  static_assert(kRecentDelays == 32, "the hash keeps the top 5 bits");
  if (recent != delay) {
    recent = delay;
    return kHeap;
  }
  // Second sighting: open a lane, or take over an empty one.
  std::size_t lane = n_lanes_;
  if (lane < kMaxLanes) {
    ++n_lanes_;
  } else {
    for (lane = 0; lane < kMaxLanes && lanes_[lane].size != 0; ++lane) {
    }
    if (lane == kMaxLanes) return kHeap;
  }
  lane_delay_[lane] = delay;
  return lane;
}

void SimEngine::push_lane(std::size_t lane, Seconds at, const EventTag& tag) {
  const LaneEntry e{at, next_seq_++, store(tag)};
  Lane& l = lanes_[lane];
  if (l.head == kNoChunk) {
    l.head = l.tail = new_chunk();
  } else if (l.tail_pos == kChunk) {
    const std::uint32_t c = new_chunk();
    chunk_next_[l.tail] = c;
    l.tail = c;
    l.tail_pos = 0;
  }
  chunks_[l.tail][l.tail_pos++] = e;
  ++l.size;
  ++in_lanes_;
  // Only a lane that was empty gets a new head. Its seq is the largest
  // queued, so it beats the current best head only on time.
  if (l.size == 1) {
    l.head_time = at;
    l.head_seq = e.seq;
    if (best_lane_ == kEmpty || at < lanes_[best_lane_].head_time) {
      best_lane_ = lane;
    }
  }
}

EventTag SimEngine::pop_lane(std::size_t lane) {
  Lane& l = lanes_[lane];
  const std::uint32_t slot = front(l).slot;
  now_ = l.head_time;
  __builtin_prefetch(&pool_[slot]);
  --in_lanes_;
  if (--l.size == 0) {
    l.head_pos = l.tail_pos = 0;  // head == tail: rewind the kept chunk
  } else {
    if (++l.head_pos == kChunk) {
      free_chunks_.push_back(l.head);
      l.head = chunk_next_[l.head];
      l.head_pos = 0;
    }
    const LaneEntry& h = front(l);
    l.head_time = h.time;
    l.head_seq = h.seq;
  }
  find_best_lane();
  return release(slot);
}

void SimEngine::find_best_lane() {
  best_lane_ = kEmpty;
  for (std::size_t k = 0; k < n_lanes_; ++k) {
    const Lane& l = lanes_[k];
    if (l.size == 0) continue;
    if (best_lane_ == kEmpty) {
      best_lane_ = k;
      continue;
    }
    const Lane& b = lanes_[best_lane_];
    if (l.head_time < b.head_time ||
        (l.head_time == b.head_time && l.head_seq < b.head_seq)) {
      best_lane_ = k;
    }
  }
}

std::uint32_t SimEngine::new_chunk() {
  if (!free_chunks_.empty()) {
    const std::uint32_t c = free_chunks_.back();
    free_chunks_.pop_back();
    return c;
  }
  chunks_.emplace_back(kChunk);
  chunk_next_.push_back(kNoChunk);
  return static_cast<std::uint32_t>(chunk_next_.size() - 1);
}

void SimEngine::push_entry(Seconds at, std::uint64_t seq,
                           const EventTag& tag) {
  const Meta m{seq, store(tag)};
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
  return release(slot);
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
  entries.reserve(pending());
  for (std::size_t i = kRoot; i < times_.size(); ++i) {
    entries.push_back({times_[i], meta_[i].seq, pool_[meta_[i].slot]});
  }
  for (std::size_t k = 0; k < n_lanes_; ++k) {
    const Lane& l = lanes_[k];
    std::uint32_t c = l.head;
    std::uint32_t pos = l.head_pos;
    for (std::size_t i = 0; i < l.size; ++i) {
      const LaneEntry& e = chunks_[c][pos];
      entries.push_back({e.time, e.seq, pool_[e.slot]});
      if (++pos == kChunk) {
        c = chunk_next_[c];
        pos = 0;
      }
    }
  }
  // Heap layout and the heap/lane split depend on insertion history, which
  // chunked runs and restores may vary; (time, seq) order is the canonical,
  // history-free form every equivalent run serializes identically.
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              return a.time < b.time ||
                     (a.time == b.time && a.seq < b.seq);
            });
  return entries;
}

void SimEngine::set_now(Seconds t) {
  if (pending() != 0) {
    throw std::logic_error("SimEngine::set_now: the engine has queued events");
  }
  now_ = t;
}

void SimEngine::restore_entry(const QueueEntry& entry) {
  require_kind(entry.tag, "restore_entry");
  // The ORIGINAL seq, not next_seq_: a restored entry must sort exactly
  // where it did in the snapshotted run, or the queue would replay in a
  // different order than the uninterrupted run.
  push_entry(entry.time, entry.seq, entry.tag);
}

}  // namespace coopnet::sim
