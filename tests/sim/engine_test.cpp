#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace coopnet::sim {
namespace {

using Trace = std::vector<std::pair<Seconds, std::uint32_t>>;

/// The engine only stores and hands back tags, so these tests use one kind
/// and put a label in `a`; each test's dispatcher decides what a label does.
EventTag label_tag(std::uint32_t label) {
  EventTag tag;
  tag.kind = 1;
  tag.a = label;
  return tag;
}

/// Dispatcher that records (now, label) for every event. Labels below 100
/// that are multiples of 3 also schedule a follow-up (label + 100) at the
/// same instant or one second later, so nested scheduling interleaves with
/// queued same-time ties.
auto recorder(SimEngine& e, Trace& trace) {
  return [&e, &trace](const EventTag& tag) {
    trace.emplace_back(e.now(), tag.a);
    if (tag.a < 100 && tag.a % 3 == 0) {
      e.schedule(tag.a % 2, label_tag(tag.a + 100));
    }
  };
}

/// Dispatcher that appends each label to `order`.
auto collect(std::vector<std::uint32_t>& order) {
  return [&order](const EventTag& tag) { order.push_back(tag.a); };
}

TEST(SimEngine, StartsAtZero) {
  SimEngine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine e;
  std::vector<std::uint32_t> order;
  e.schedule(3.0, label_tag(3));
  e.schedule(1.0, label_tag(1));
  e.schedule(2.0, label_tag(2));
  e.run(collect(order));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(SimEngine, TiesBreakInSchedulingOrder) {
  SimEngine e;
  std::vector<std::uint32_t> order;
  e.schedule(1.0, label_tag(1));
  e.schedule(1.0, label_tag(2));
  e.schedule(1.0, label_tag(3));
  e.run(collect(order));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SimEngine, DispatchSeesTheWholeTag) {
  SimEngine e;
  EventTag tag;
  tag.kind = 7;
  tag.a = 1;
  tag.g = 2;
  tag.x = 0.5;
  tag.y = -3.25;
  tag.n = -9;
  e.schedule(1.0, tag);
  int fired = 0;
  e.run([&](const EventTag& got) {
    ++fired;
    EXPECT_EQ(got.kind, 7u);
    EXPECT_EQ(got.a, 1u);
    EXPECT_EQ(got.g, 2u);
    EXPECT_EQ(got.x, 0.5);
    EXPECT_EQ(got.y, -3.25);
    EXPECT_EQ(got.n, -9);
  });
  EXPECT_EQ(fired, 1);
}

TEST(SimEngine, EventsCanScheduleEvents) {
  SimEngine e;
  std::vector<std::uint32_t> order;
  e.schedule(1.0, label_tag(1));
  e.run([&](const EventTag& tag) {
    order.push_back(tag.a);
    if (tag.a == 1) e.schedule(1.0, label_tag(2));
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(e.now(), 2.0);
}

TEST(SimEngine, RunUntilLeavesLaterEventsQueued) {
  SimEngine e;
  std::vector<std::uint32_t> order;
  e.schedule(1.0, label_tag(1));
  e.schedule(5.0, label_tag(5));
  e.run_until(2.0, collect(order));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(e.now(), 2.0);  // clock advances to the deadline
  EXPECT_EQ(e.pending(), 1u);
  e.run(collect(order));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 5}));
}

TEST(SimEngine, StopHaltsTheLoop) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, label_tag(1));
  e.schedule(2.0, label_tag(2));
  e.run([&](const EventTag& tag) {
    ++fired;
    if (tag.a == 1) e.stop();
  });
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.pending(), 1u);
}

TEST(SimEngine, StopIsStickyUntilReset) {
  SimEngine e;
  e.schedule(1.0, label_tag(0));
  e.run([&](const EventTag&) { e.stop(); });
  ASSERT_TRUE(e.stopped());

  // A stop raised inside an event must not be swallowed by the next run:
  // both run() and run_until() return immediately without executing events
  // or advancing the clock.
  int fired = 0;
  const auto count = [&fired](const EventTag&) { ++fired; };
  e.schedule(1.0, label_tag(1));
  e.run(count);
  EXPECT_EQ(fired, 0);
  e.run_until(10.0, count);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 1.0);
  EXPECT_EQ(e.pending(), 1u);

  // Only an explicit reset lets the engine run again.
  e.reset_stop();
  EXPECT_FALSE(e.stopped());
  e.run_until(10.0, count);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(SimEngine, RejectsBadScheduling) {
  SimEngine e;
  EXPECT_THROW(e.schedule(-1.0, label_tag(0)), std::invalid_argument);
  // Kind 0 is the invalid tag, on every path into the queue.
  EXPECT_THROW(e.schedule(1.0, EventTag{}), std::invalid_argument);
  EXPECT_THROW(e.schedule_at(1.0, EventTag{}), std::invalid_argument);
  EXPECT_THROW(e.restore_entry({1.0, 0, EventTag{}}), std::invalid_argument);
  EXPECT_EQ(e.pending(), 0u);
  e.schedule(5.0, label_tag(0));
  e.run([](const EventTag&) {});
  EXPECT_THROW(e.schedule_at(1.0, label_tag(0)), std::invalid_argument);
}

TEST(SimEngine, RunUntilWithEmptyQueueAdvancesClock) {
  SimEngine e;
  e.run_until(7.0, [](const EventTag&) { FAIL() << "nothing was queued"; });
  EXPECT_EQ(e.now(), 7.0);
}

/// A self-rescheduling chain that would run forever without supervision:
/// every event queues its own tag again one second later.
auto ticker(SimEngine& e) {
  return [&e](const EventTag& tag) { e.schedule(1.0, tag); };
}

TEST(SimEngine, EventLimitStopsAfterExactlyNEvents) {
  SimEngine e;
  e.schedule(1.0, label_tag(0));
  e.set_event_limit(5);
  e.run(ticker(e));
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_TRUE(e.event_limit_hit());
  EXPECT_TRUE(e.stopped());

  // Sticky like stop(): another run() without a reset does nothing.
  e.run(ticker(e));
  EXPECT_EQ(e.events_processed(), 5u);

  // Raising the limit and clearing the stop resumes the same chain; the
  // new limit is again exact.
  e.set_event_limit(8);
  EXPECT_FALSE(e.event_limit_hit());
  e.reset_stop();
  e.run(ticker(e));
  EXPECT_EQ(e.events_processed(), 8u);
  EXPECT_TRUE(e.event_limit_hit());
}

TEST(SimEngine, GuardRunsAtItsCadenceAndCanStopTheRun) {
  SimEngine e;
  e.schedule(1.0, label_tag(0));
  int guard_calls = 0;
  e.set_guard(3, [&] {
    if (++guard_calls == 4) e.stop();
  });
  e.run(ticker(e));
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
    Trace trace;
    for (std::uint32_t i = 0; i < 6; ++i) {
      // Ties at t=1.0 and t=2.0 exercise the seq tie-break.
      e.schedule(1.0 + (i % 2), label_tag(i));
    }
    e.run([&trace, &e](const EventTag& tag) {
      trace.emplace_back(e.now(), tag.a);
    });
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
  for (std::uint32_t i = 0; i < 24; ++i) {
    // Four timestamps, six events each: every timestamp is a tie group.
    original.schedule(1.0 + 0.5 * (i % 4), label_tag(i));
  }
  original.run_until(1.0, recorder(original, original_trace));
  ASSERT_FALSE(original_trace.empty());
  const std::size_t executed = original_trace.size();
  const std::vector<SimEngine::QueueEntry> queue = original.snapshot_queue();
  ASSERT_FALSE(queue.empty());

  SimEngine restored;
  Trace restored_trace;
  restored.set_now(original.now());
  restored.set_next_seq(original.next_seq());
  restored.set_processed(original.events_processed());
  // Restore back to front: the heap position must come from (time, seq),
  // not from the order entries are re-inserted in.
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    restored.restore_entry(*it);
  }
  EXPECT_EQ(restored.pending(), original.pending());

  // Post-restore scheduling on both engines, tying with restored events.
  for (std::uint32_t label : {200u, 201u, 202u}) {
    const Seconds delay = 0.5 * (label - 200);
    original.schedule(delay, label_tag(label));
    restored.schedule(delay, label_tag(label));
  }

  original.run(recorder(original, original_trace));
  restored.run(recorder(restored, restored_trace));
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
