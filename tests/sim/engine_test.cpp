#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace coopnet::sim {
namespace {

using Trace = std::vector<std::pair<Seconds, std::uint32_t>>;

EventTag label_tag(std::uint32_t label) {
  EventTag tag;
  tag.kind = 1;
  tag.a = label;
  return tag;
}

/// An event that records (now, label) when it fires. Labels below 100
/// that are multiples of 3 also schedule a tagged follow-up (label + 100)
/// at the same instant or one second later, so nested scheduling
/// interleaves with queued same-time ties.
SimEngine::EventFn recorder(SimEngine& e, Trace& trace, std::uint32_t label) {
  return [&e, &trace, label] {
    trace.emplace_back(e.now(), label);
    if (label < 100 && label % 3 == 0) {
      e.schedule_tagged(label % 2, label_tag(label + 100),
                        recorder(e, trace, label + 100));
    }
  };
}

TEST(SimEngine, StartsAtZero) {
  SimEngine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(SimEngine, TiesBreakInSchedulingOrder) {
  SimEngine e;
  std::vector<int> order;
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(1.0, [&] { order.push_back(2); });
  e.schedule(1.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngine, EventsCanScheduleEvents) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.schedule(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 2.0);
}

TEST(SimEngine, RunUntilLeavesLaterEventsQueued) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.schedule(5.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 2.0);  // clock advances to the deadline
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngine, StopHaltsTheLoop) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.pending(), 1u);
}

TEST(SimEngine, StopIsStickyUntilReset) {
  SimEngine e;
  e.schedule(1.0, [&] { e.stop(); });
  e.run();
  ASSERT_TRUE(e.stopped());

  // A stop raised inside an event must not be swallowed by the next run:
  // both run() and run_until() return immediately without executing events
  // or advancing the clock.
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 0);
  e.run_until(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 1.0);
  EXPECT_EQ(e.pending(), 1u);

  // Only an explicit reset lets the engine run again.
  e.reset_stop();
  EXPECT_FALSE(e.stopped());
  e.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(SimEngine, RejectsBadScheduling) {
  SimEngine e;
  EXPECT_THROW(e.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule(1.0, SimEngine::EventFn{}), std::invalid_argument);
  e.schedule(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(SimEngine, RunUntilWithEmptyQueueAdvancesClock) {
  SimEngine e;
  e.run_until(7.0);
  EXPECT_EQ(e.now(), 7.0);
}

// A self-rescheduling chain that would run forever without supervision.
// (EventFn is move-only, so the recursion goes through a functor that
// schedules a fresh copy of itself.)
struct Ticker {
  SimEngine* e;
  void operator()() const { e->schedule(1.0, Ticker{e}); }
};

TEST(SimEngine, EventLimitStopsAfterExactlyNEvents) {
  SimEngine e;
  e.schedule(1.0, Ticker{&e});
  e.set_event_limit(5);
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_TRUE(e.event_limit_hit());
  EXPECT_TRUE(e.stopped());

  // Sticky like stop(): another run() without a reset does nothing.
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);

  // Raising the limit and clearing the stop resumes the same chain; the
  // new limit is again exact.
  e.set_event_limit(8);
  EXPECT_FALSE(e.event_limit_hit());
  e.reset_stop();
  e.run();
  EXPECT_EQ(e.events_processed(), 8u);
  EXPECT_TRUE(e.event_limit_hit());
}

TEST(SimEngine, GuardRunsAtItsCadenceAndCanStopTheRun) {
  SimEngine e;
  e.schedule(1.0, Ticker{&e});
  int guard_calls = 0;
  e.set_guard(3, [&] {
    if (++guard_calls == 4) e.stop();
  });
  e.run();
  // Guard fires after events 3, 6, 9, 12; the fourth call stops the run.
  EXPECT_EQ(guard_calls, 4);
  EXPECT_EQ(e.events_processed(), 12u);
  // A guard-initiated stop is a plain stop, not an event-limit hit.
  EXPECT_FALSE(e.event_limit_hit());
}

TEST(SimEngine, GuardDoesNotPerturbEventOrderOrClock) {
  // Identical schedules with and without an (inert) guard must pop in the
  // same order at the same times -- supervision must be invisible when it
  // does not fire.
  const auto run_trace = [](bool with_guard) {
    SimEngine e;
    if (with_guard) e.set_guard(2, [] {});
    std::vector<std::pair<double, int>> trace;
    for (int i = 0; i < 6; ++i) {
      // Ties at t=1.0 and t=2.0 exercise the seq tie-break.
      e.schedule(1.0 + (i % 2), [&trace, &e, i] {
        trace.emplace_back(e.now(), i);
      });
    }
    e.run();
    return trace;
  };
  EXPECT_EQ(run_trace(false), run_trace(true));
}

TEST(SimEngine, RestoredQueuePopsInTheOriginalOrder) {
  // restore_entry re-inserts each snapshot entry under its ORIGINAL seq,
  // so a restored engine must replay the rest of the run exactly like the
  // engine the snapshot came from: same-time ties keep their scheduling
  // order and events scheduled after the restore sort behind them.
  SimEngine original;
  Trace original_trace;
  original.enable_tags();
  for (std::uint32_t i = 0; i < 24; ++i) {
    // Four timestamps, six events each: every timestamp is a tie group.
    original.schedule_tagged(1.0 + 0.5 * (i % 4), label_tag(i),
                             recorder(original, original_trace, i));
  }
  original.run_until(1.0);
  ASSERT_FALSE(original_trace.empty());
  const std::size_t executed = original_trace.size();
  const std::vector<SimEngine::QueueEntry> queue = original.snapshot_queue();
  ASSERT_FALSE(queue.empty());

  SimEngine restored;
  Trace restored_trace;
  restored.enable_tags();
  restored.set_now(original.now());
  restored.set_next_seq(original.next_seq());
  restored.set_processed(original.events_processed());
  // Restore back to front: the heap position must come from (time, seq),
  // not from the order entries are re-inserted in.
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    restored.restore_entry(*it,
                           recorder(restored, restored_trace, it->tag.a));
  }
  EXPECT_EQ(restored.pending(), original.pending());

  // Post-restore scheduling on both engines, tying with restored events.
  for (std::uint32_t label : {200u, 201u, 202u}) {
    const Seconds delay = 0.5 * (label - 200);
    original.schedule_tagged(delay, label_tag(label),
                             recorder(original, original_trace, label));
    restored.schedule_tagged(delay, label_tag(label),
                             recorder(restored, restored_trace, label));
  }

  original.run();
  restored.run();
  const Trace tail(original_trace.begin() + executed, original_trace.end());
  ASSERT_EQ(restored_trace.size(), tail.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(restored_trace[i], tail[i]) << "pop " << i;
  }
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.events_processed(), original.events_processed());
}

}  // namespace
}  // namespace coopnet::sim
