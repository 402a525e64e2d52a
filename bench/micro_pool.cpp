// Micro-benchmarks (google-benchmark) for the parallel experiment runner:
// per-cell seed derivation and the end-to-end scaling of a replicated
// small-swarm sweep across --jobs levels. Not a paper artifact; the
// performance guard for the scheduler added with the `--jobs` machinery.
#include <benchmark/benchmark.h>

#include "exp/replication.h"
#include "exp/schedule.h"
#include "sim/config.h"

namespace {

using namespace coopnet;

// Per-cell seed derivation: must stay O(1) and far off any hot path.
void BM_CellSeed(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::cell_seed(7, i++));
  }
}
BENCHMARK(BM_CellSeed);

// End-to-end: a replicated small-swarm sweep at increasing --jobs. On a
// k-core box throughput should rise until jobs ~ k; results are identical
// at every level (see tests/exp/parallel_determinism_test.cpp).
void BM_ReplicatedSweep(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  auto config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent, 7);
  config.max_time = 300.0;
  const std::size_t reps = 8;
  for (auto _ : state) {
    const auto rep = exp::run_replicated(config, reps, 7, jobs);
    if (!rep.sweep.complete()) {
      state.SkipWithError(rep.sweep.degradation_summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(rep.completed_fraction.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reps));
}
BENCHMARK(BM_ReplicatedSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
