// Micro-benchmarks (google-benchmark) for the simulator's hot paths: the
// event queue, piece-set scans, rarest-first selection, the analytical
// piece-availability kernels, and end-to-end small swarm runs per
// algorithm. Not a paper artifact; a performance guard for the substrate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/piece_availability.h"
#include "exp/runner.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/piece_set.h"
#include "sim/reference_engine.h"
#include "strategy/factory.h"
#include "util/rng.h"

namespace {

using namespace coopnet;

// --- churn workload --------------------------------------------------------
// The simulator's event pattern, distilled: a standing population of
// pending events where every fired event reschedules one successor (a tick
// chain) and sometimes a second, larger event (a transfer completion
// carrying a Transfer-sized payload). SimEngine queues both as tags, like
// the swarm; the reference engine queues closures, the completion's
// capture overflowing small-capture optimizations. Both engines replay it
// identically -- pop order decides the RNG draws, and the differential
// suite pins pop order -- so the optimized/reference ratio isolates pure
// scheduler cost.
template <typename Engine>
struct ChurnDriver {
  static constexpr bool kTags = std::is_same_v<Engine, sim::SimEngine>;
  enum Kind : std::uint32_t { kSmall = 1, kPayload = 2 };

  // Matches sizeof a [this, Transfer] capture (64 bytes): the completion
  // events that dominate a real run and exceed any 48-byte inline buffer.
  struct Payload {
    double a[6];
    std::uint32_t b[4];
  };

  Engine engine;
  util::Rng rng{42};
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
  double sink = 0.0;

  void fire_small() {
    ++fired;
    reschedule();
  }
  void fire_payload(double a0) {
    ++fired;
    sink += a0;
    reschedule();
  }
  void schedule_small(double delay) {
    if constexpr (kTags) {
      sim::EventTag tag;
      tag.kind = kSmall;
      engine.schedule(delay, tag);
    } else {
      engine.schedule(delay, [this] { fire_small(); });
    }
  }
  void schedule_payload(double delay, const Payload& p) {
    if constexpr (kTags) {
      sim::EventTag tag;
      tag.kind = kPayload;
      tag.x = p.a[0];
      engine.schedule(delay, tag);
    } else {
      engine.schedule(delay, [this, p] { fire_payload(p.a[0]); });
    }
  }
  void reschedule() {
    if (fired >= budget) return;
    schedule_small(rng.uniform(0.0, 2.0));
    if (rng.bernoulli(0.3)) {
      Payload p{};
      p.a[0] = 1.0;
      schedule_payload(rng.uniform(0.0, 4.0), p);
    }
  }
  void run() {
    if constexpr (kTags) {
      engine.run([this](const sim::EventTag& tag) {
        if (tag.kind == kPayload) {
          fire_payload(tag.x);
        } else {
          fire_small();
        }
      });
    } else {
      engine.run();
    }
  }
};

template <typename Engine>
std::uint64_t run_churn(std::size_t pending, std::uint64_t budget) {
  ChurnDriver<Engine> driver;
  driver.budget = budget;
  for (std::size_t i = 0; i < pending; ++i) {
    driver.schedule_small(driver.rng.uniform(0.0, 2.0));
  }
  driver.run();
  benchmark::DoNotOptimize(driver.sink);
  return driver.engine.events_processed();
}

/// Queues one counting event at each of `times` and runs them all: tags
/// on SimEngine, closures on the reference engine.
template <typename Engine>
std::uint64_t schedule_run(const std::vector<double>& times) {
  Engine engine;
  std::size_t fired = 0;
  if constexpr (std::is_same_v<Engine, sim::SimEngine>) {
    sim::EventTag tag;
    tag.kind = 1;
    for (double t : times) engine.schedule(t, tag);
    engine.run([&fired](const sim::EventTag&) { ++fired; });
  } else {
    for (double t : times) engine.schedule(t, [&fired] { ++fired; });
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
  return engine.events_processed();
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> times(n);
  for (auto _ : state) {
    for (double& t : times) t = rng.uniform(0.0, 1000.0);
    schedule_run<sim::SimEngine>(times);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// The headline scheduler benchmark: self-rescheduling event churn (see
// ChurnDriver) on the optimized engine vs the preserved seed engine. The
// perf gate tracks the optimized/reference events/sec ratio, which is
// machine-independent.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_churn<sim::SimEngine>(pending, pending * 20);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(100000);

void BM_EventQueueChurnReference(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_churn<sim::ReferenceEngine>(pending, pending * 20);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChurnReference)->Arg(1000)->Arg(100000);

void BM_PieceSetOfferScan(benchmark::State& state) {
  const auto m = static_cast<sim::PieceId>(state.range(0));
  util::Rng rng(2);
  sim::PieceSet offer(m), excluded(m);
  for (sim::PieceId p = 0; p < m; ++p) {
    if (rng.bernoulli(0.5)) offer.add(p);
    if (rng.bernoulli(0.5)) excluded.add(p);
  }
  for (auto _ : state) {
    std::size_t count = offer.for_each_offerable(
        excluded, [](sim::PieceId) {});
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PieceSetOfferScan)->Arg(512)->Arg(4096);

void BM_QNeedsKernel(benchmark::State& state) {
  const std::int64_t M = state.range(0);
  std::int64_t mi = 0;
  for (auto _ : state) {
    const double q = core::q_needs(mi % M, (mi * 7 + 3) % M, M);
    benchmark::DoNotOptimize(q);
    ++mi;
  }
}
BENCHMARK(BM_QNeedsKernel)->Arg(512);

void BM_PiTChainKernel(benchmark::State& state) {
  const std::int64_t M = state.range(0);
  const auto dist = core::PieceCountDistribution::uniform_interior(M);
  std::int64_t mi = 1;
  for (auto _ : state) {
    const double pi =
        core::pi_tchain(mi % (M - 1) + 1, (mi * 5) % (M - 1) + 1, dist, 1000);
    benchmark::DoNotOptimize(pi);
    ++mi;
  }
}
BENCHMARK(BM_PiTChainKernel)->Arg(128);

void BM_SmallSwarmRun(benchmark::State& state) {
  const auto algo = static_cast<core::Algorithm>(state.range(0));
  for (auto _ : state) {
    auto config = sim::SwarmConfig::small(algo, 7);
    config.max_time = 500.0;
    const auto report = exp::run_scenario(config);
    benchmark::DoNotOptimize(report.total_uploaded_bytes);
  }
  state.SetLabel(core::to_string(algo));
}
BENCHMARK(BM_SmallSwarmRun)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMillisecond);

void BM_MidSwarmBitTorrent(benchmark::State& state) {
  for (auto _ : state) {
    auto config =
        sim::SwarmConfig::paper_scale(core::Algorithm::kBitTorrent, 7);
    config.n_peers = 300;
    config.file_bytes = 32LL * 1024 * 1024;
    config.graph.degree = 30;
    config.max_time = 1500.0;
    const auto report = exp::run_scenario(config);
    benchmark::DoNotOptimize(report.total_uploaded_bytes);
  }
}
BENCHMARK(BM_MidSwarmBitTorrent)->Unit(benchmark::kMillisecond);

// Audit-neutrality self-check: the auditor is pure observation, so a run
// with invariant checks at every event must produce a bit-identical
// report to the same run with auditing off -- in audit builds (checks on
// vs off) and in normal builds (where audit_every must be a no-op knob
// with zero overhead). Runs once before the benchmarks.
bool audit_neutrality_check() {
  auto config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent, 7);
  config.max_time = 500.0;
  config.faults = sim::moderate_churn();
  config.faults.transfer_loss_rate = 0.05;

  config.audit_every = 1;
  const std::string audited = metrics::to_json(exp::run_scenario(config));
  config.audit_every = 0;
  const std::string bare = metrics::to_json(exp::run_scenario(config));
  if (audited != bare) {
    std::fprintf(stderr,
                 "micro_engine: FAIL -- auditing perturbed the run "
                 "(audit_every=1 vs 0 reports differ)\n");
    return false;
  }
  std::fprintf(stderr, "audit-neutrality self-check: OK\n");
  return true;
}

// --- BENCH_engine.json -----------------------------------------------------
// Fixed-workload measurements for the perf-regression gate: the churn and
// schedule/run workloads on the optimized engine and the preserved seed
// engine, in this one binary, so the "speedup" fields are measured on one
// machine by identical code. tools/ci_bench_gate.sh gates on the ratios.
int emit_bench_json(const std::string& path) {
  using bench::BenchRecord;
  std::vector<BenchRecord> records;

  auto timed = [](auto&& fn) {
    const double start = bench::wall_now();
    const std::uint64_t events = fn();
    return std::pair<std::uint64_t, double>(events,
                                            bench::wall_now() - start);
  };
  // Best-of-three keeps one scheduler hiccup from polluting the committed
  // baseline.
  auto best_of = [&timed](auto&& fn) {
    std::uint64_t events = 0;
    double best = -1.0;
    for (int rep = 0; rep < 3; ++rep) {
      auto [e, w] = timed(fn);
      if (best < 0.0 || w < best) {
        best = w;
        events = e;
      }
    }
    return std::pair<std::uint64_t, double>(events, best);
  };

  struct Workload {
    const char* name;
    std::size_t pending;
    std::uint64_t budget;
  };
  for (const Workload& w : {Workload{"churn/pending=1000", 1000, 2000000},
                            Workload{"churn/pending=100000", 100000,
                                     2000000}}) {
    BenchRecord opt;
    opt.name = std::string("engine_") + w.name;
    std::tie(opt.events, opt.wall_s) = best_of(
        [&w] { return run_churn<sim::SimEngine>(w.pending, w.budget); });

    BenchRecord ref;
    ref.name = std::string("reference_") + w.name;
    std::tie(ref.events, ref.wall_s) = best_of(
        [&w] { return run_churn<sim::ReferenceEngine>(w.pending, w.budget); });

    opt.extra.push_back(
        {"speedup_vs_reference", opt.events_per_sec() / ref.events_per_sec()});
    std::printf("%-28s %12.0f events/s  (reference %12.0f, speedup %.2fx)\n",
                w.name, opt.events_per_sec(), ref.events_per_sec(),
                opt.events_per_sec() / ref.events_per_sec());
    records.push_back(std::move(opt));
    records.push_back(std::move(ref));
  }

  {
    util::Rng rng(1);
    std::vector<double> times(500000);
    for (auto& t : times) t = rng.uniform(0.0, 1000.0);
    BenchRecord opt;
    opt.name = "engine_schedule_run/n=500000";
    std::tie(opt.events, opt.wall_s) =
        best_of([&] { return schedule_run<sim::SimEngine>(times); });
    BenchRecord ref;
    ref.name = "reference_schedule_run/n=500000";
    std::tie(ref.events, ref.wall_s) =
        best_of([&] { return schedule_run<sim::ReferenceEngine>(times); });
    opt.extra.push_back(
        {"speedup_vs_reference", opt.events_per_sec() / ref.events_per_sec()});
    std::printf("%-28s %12.0f events/s  (reference %12.0f, speedup %.2fx)\n",
                "schedule_run/n=500000", opt.events_per_sec(),
                ref.events_per_sec(),
                opt.events_per_sec() / ref.events_per_sec());
    records.push_back(std::move(opt));
    records.push_back(std::move(ref));
  }

  bench::write_bench_json(path, "micro_engine", records);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!audit_neutrality_check()) return 1;
  // --json-out=FILE bypasses google-benchmark and runs the fixed-workload
  // BENCH_engine.json measurements (the perf-gate artifact).
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json-out=", 11) == 0) {
      return emit_bench_json(arg + 11);
    }
    if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
      return emit_bench_json(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
