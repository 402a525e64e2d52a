// Differential test: the lane-and-heap engine (sim/engine.h) against
// the seed std::priority_queue model (sim/reference_engine.h), driven
// side-by-side through randomized schedule/schedule_at/run/run_until/stop/
// reset_stop sequences. The engines must agree on everything observable:
// pop order (via a shared label log), the clock, pending counts, and
// events_processed -- including same-time ties, events scheduled from
// inside events, and stop() raised mid-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/reference_engine.h"
#include "util/rng.h"

namespace coopnet::sim {
namespace {

/// SimEngine behind ReferenceEngine's closure surface, so one replay
/// drives both. Each closure is parked in a side vector and the engine
/// queues a tag whose `a` is its index; the dispatcher runs that closure.
class ClosureEngine {
 public:
  using EventFn = std::function<void()>;

  Seconds now() const { return engine_.now(); }
  void schedule(Seconds delay, EventFn fn) {
    engine_.schedule(delay, park(std::move(fn)));
  }
  void schedule_at(Seconds at, EventFn fn) {
    engine_.schedule_at(at, park(std::move(fn)));
  }
  void run() {
    engine_.run([this](const EventTag& tag) { fire(tag); });
  }
  void run_until(Seconds deadline) {
    engine_.run_until(deadline, [this](const EventTag& tag) { fire(tag); });
  }
  void stop() { engine_.stop(); }
  void reset_stop() { engine_.reset_stop(); }
  bool stopped() const { return engine_.stopped(); }
  std::size_t pending() const { return engine_.pending(); }
  std::uint64_t events_processed() const {
    return engine_.events_processed();
  }

 private:
  EventTag park(EventFn fn) {
    EventTag tag;
    tag.kind = 1;
    tag.a = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
    return tag;
  }
  void fire(const EventTag& tag) {
    // Moved out before the call: the closure may schedule more events,
    // which grows (and may reallocate) closures_.
    EventFn fn = std::move(closures_[tag.a]);
    fn();
  }

  SimEngine engine_;
  std::vector<EventFn> closures_;
};

// One operation of the randomized schedule; both engines replay the same
// tape so their callback side effects are structurally identical.
struct Op {
  enum class Kind {
    kSchedule,     // relative delay
    kScheduleAt,   // absolute time (>= now at execution)
    kNested,       // event that schedules two more events when it fires
    kStopper,      // event that calls stop() when it fires
    kRun,          // run()
    kRunUntil,     // run_until(deadline)
    kResetStop,    // reset_stop()
  };
  Kind kind;
  double a = 0.0;  // delay / absolute offset / deadline
  double b = 0.0;  // nested: inner delays
  int label = 0;
};

std::vector<Op> random_tape(std::uint64_t seed, std::size_t n_ops) {
  util::Rng rng(seed);
  std::vector<Op> tape;
  tape.reserve(n_ops);
  int label = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    const std::uint64_t k = rng.uniform_u64(16);
    if (k < 6) {
      op.kind = Op::Kind::kSchedule;
      // Coarse quantization forces plenty of exact same-time ties.
      op.a = static_cast<double>(rng.uniform_u64(8));
    } else if (k < 8) {
      op.kind = Op::Kind::kScheduleAt;
      op.a = static_cast<double>(rng.uniform_u64(12));
    } else if (k < 10) {
      op.kind = Op::Kind::kNested;
      op.a = static_cast<double>(rng.uniform_u64(6));
      op.b = static_cast<double>(rng.uniform_u64(4));
    } else if (k < 11) {
      op.kind = Op::Kind::kStopper;
      op.a = static_cast<double>(rng.uniform_u64(6));
    } else if (k < 13) {
      op.kind = Op::Kind::kRun;
    } else if (k < 15) {
      op.kind = Op::Kind::kRunUntil;
      op.a = static_cast<double>(rng.uniform_u64(20));
    } else {
      op.kind = Op::Kind::kResetStop;
    }
    op.label = label++;
    tape.push_back(op);
  }
  return tape;
}

// A tape whose delays mostly come from a fixed set of 24 values -- more
// than SimEngine's 16 fixed-delay lanes, so lanes fill, drain and pass to
// other delays mid-run -- mixed with continuous delays (which stay in the
// heap), schedule_at, nested schedules and short run_until windows that
// keep many lanes non-empty at once. The set includes values such as 0.1
// and 0.7 whose sums with the clock round, and 0 and 1 us for same-time
// ties.
std::vector<Op> fixed_delay_tape(std::uint64_t seed, std::size_t n_ops) {
  static constexpr double kDelays[] = {
      0.0, 1e-6, 0.1,  0.2,    0.3,  0.3125, 0.4,  0.5,
      0.6, 0.7,  0.8,  0.9,    1.0,  1.1,    1.25, 1.5,
      2.0, 2.5,  3.0,  3.3333, 4.0,  5.0,    7.5,  10.0};
  constexpr std::size_t kFixed = sizeof kDelays / sizeof kDelays[0];
  util::Rng rng(seed);
  auto fixed = [&rng] { return kDelays[rng.uniform_u64(kFixed)]; };
  std::vector<Op> tape;
  tape.reserve(n_ops);
  int label = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    const std::uint64_t k = rng.uniform_u64(20);
    if (k < 8) {
      op.kind = Op::Kind::kSchedule;
      op.a = fixed();
    } else if (k < 10) {
      op.kind = Op::Kind::kSchedule;
      op.a = rng.uniform(0.0, 6.0);
    } else if (k < 12) {
      op.kind = Op::Kind::kScheduleAt;
      op.a = fixed();
    } else if (k < 15) {
      op.kind = Op::Kind::kNested;
      op.a = fixed();
      op.b = fixed();
    } else if (k < 16) {
      op.kind = Op::Kind::kStopper;
      op.a = fixed();
    } else if (k < 18) {
      op.kind = Op::Kind::kRunUntil;
      op.a = rng.uniform(0.0, 1.5);
    } else if (k < 19) {
      op.kind = Op::Kind::kRun;
    } else {
      op.kind = Op::Kind::kResetStop;
    }
    op.label = label++;
    tape.push_back(op);
  }
  return tape;
}

// Replays the tape against any engine with ReferenceEngine's interface,
// recording fired-event labels, clocks, and counters into a transcript.
template <typename Engine>
std::vector<std::string> replay(const std::vector<Op>& tape) {
  Engine engine;
  std::vector<std::string> transcript;
  auto note = [&transcript, &engine](const std::string& what) {
    transcript.push_back(what + " now=" + std::to_string(engine.now()) +
                         " pending=" + std::to_string(engine.pending()) +
                         " processed=" +
                         std::to_string(engine.events_processed()) +
                         (engine.stopped() ? " stopped" : ""));
  };
  for (const Op& op : tape) {
    const std::string tag = std::to_string(op.label);
    switch (op.kind) {
      case Op::Kind::kSchedule:
        engine.schedule(op.a, [&note, tag] { note("fire " + tag); });
        break;
      case Op::Kind::kScheduleAt:
        engine.schedule_at(engine.now() + op.a,
                           [&note, tag] { note("fire " + tag); });
        break;
      case Op::Kind::kNested: {
        const double inner = op.b;
        engine.schedule(op.a, [&note, &engine, tag, inner] {
          note("fire " + tag);
          engine.schedule(inner, [&note, tag] { note("inner1 " + tag); });
          engine.schedule(inner + 1.0,
                          [&note, tag] { note("inner2 " + tag); });
        });
        break;
      }
      case Op::Kind::kStopper:
        engine.schedule(op.a, [&note, &engine, tag] {
          note("stop " + tag);
          engine.stop();
        });
        break;
      case Op::Kind::kRun:
        engine.run();
        note("ran");
        break;
      case Op::Kind::kRunUntil:
        engine.run_until(engine.now() + op.a);
        note("ran-until");
        break;
      case Op::Kind::kResetStop:
        engine.reset_stop();
        break;
    }
  }
  engine.reset_stop();
  engine.run();
  note("drained");
  return transcript;
}

// Every transcript line must match, which pins pop order, tie-breaks,
// clock movement, and the counters.
void expect_matches_reference(const std::vector<Op>& tape,
                              std::uint64_t seed) {
  const auto optimized = replay<ClosureEngine>(tape);
  const auto reference = replay<ReferenceEngine>(tape);
  ASSERT_EQ(optimized.size(), reference.size()) << "seed " << seed;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(optimized[i], reference[i])
        << "seed " << seed << " transcript line " << i;
  }
}

TEST(EngineDifferential, RandomTapesMatchReferenceModel) {
  // ~10k operations across seeds.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_matches_reference(random_tape(seed, 500), seed);
  }
}

TEST(EngineDifferential, FixedDelayTapesMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_matches_reference(fixed_delay_tape(seed, 800), seed);
  }
}

TEST(EngineDifferential, DenseTieStorm) {
  // All events at one timestamp: order must be pure scheduling order, in
  // both engines, even when events keep piling onto the same instant.
  auto storm = [](auto&& engine) {
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      engine.schedule(1.0, [&order, &engine, i] {
        order.push_back(i);
        if (i < 50) {
          engine.schedule(0.0, [&order, i] { order.push_back(1000 + i); });
        }
      });
    }
    engine.run();
    return order;
  };
  ClosureEngine optimized;
  ReferenceEngine reference;
  EXPECT_EQ(storm(optimized), storm(reference));
}

TEST(EngineDifferential, InterleavedRunUntilWindows) {
  auto windows = [](auto&& engine) {
    std::vector<std::pair<int, double>> fired;
    util::Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      engine.schedule_at(static_cast<double>(rng.uniform_u64(50)),
                         [&fired, &engine, i] {
                           fired.push_back({i, engine.now()});
                         });
    }
    for (double t = 5.0; t <= 60.0; t += 5.0) {
      engine.run_until(t);
      fired.push_back({-1, engine.now()});
    }
    return fired;
  };
  ClosureEngine optimized;
  ReferenceEngine reference;
  EXPECT_EQ(windows(optimized), windows(reference));
}

}  // namespace
}  // namespace coopnet::sim
