// End-to-end swarm throughput benchmark: the six-mechanism sweep at
// N in {100, 1000, 5000}, measured in simulator events per wall-clock
// second. This is the macro counterpart of micro_engine: it exercises the
// full hot path (event engine, neighbor interest checks, rarest-first
// selection, transfer machinery) exactly the way the paper's Section V
// experiments do.
//
//   micro_swarm [--json-out FILE] [--max-n N] [--seed S]
//   micro_swarm --peers N [--horizon SECS] [--json-out FILE] [--seed S]
//
// --json-out writes the BENCH_swarm.json document consumed by
// tools/ci_bench_gate.sh; bench/baselines/BENCH_swarm.json is the
// committed baseline and bench/baselines/BENCH_swarm.seed.json preserves
// the pre-optimization numbers the PR's speedup claim is measured against
// (same source file, same workloads). --max-n 1000 skips the N = 5000 leg
// (the CI perf-smoke setting).
//
// --peers switches to the single-run scale leg: one BitTorrent swarm of N
// peers over a small file (8 MB / 32 pieces) and a fixed simulated
// horizon, sized so N = 100,000 fits a CI wall-clock budget. Emits
// BENCH_swarm_scale.json-style records (one `scale/n=N` row); the
// document-level peak_rss_kb is the memory gate's input. Event counts are
// deterministic, so the gate diffs them byte-for-byte.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "metrics/run_metrics.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace coopnet;

sim::SwarmConfig sweep_config(core::Algorithm algo, std::size_t n,
                              std::uint64_t seed) {
  auto config = sim::SwarmConfig::paper_scale(algo, seed);
  config.n_peers = n;
  if (n <= 100) {
    config.file_bytes = 16LL * 1024 * 1024;
  } else if (n >= 5000) {
    // Smaller file at N = 5000 bounds the sweep's wall clock; the point of
    // the leg is scheduler + index scaling with swarm size, not file size.
    config.file_bytes = 32LL * 1024 * 1024;
  }
  // Cap idle tails (pure reciprocity never completes); matches the bench
  // default in bench_common.h.
  config.max_time = 4000.0;
  return config;
}

// The scale leg: piece work per peer is capped (32 pieces) so event count
// grows ~linearly with N and the run measures per-peer bookkeeping --
// membership, choking, timers -- not file size.
sim::SwarmConfig scale_config(std::size_t n, double horizon,
                              std::uint64_t seed) {
  auto config = sim::SwarmConfig::paper_scale(core::Algorithm::kBitTorrent,
                                              seed);
  config.n_peers = n;
  config.file_bytes = 8LL * 1024 * 1024;  // 32 pieces of 256 KB
  config.graph.degree = 30;
  // A short flash crowd keeps the whole population live at once -- the
  // worst case for the active-set and timer machinery.
  config.flash_crowd_window = 10.0;
  config.max_time = horizon;
  return config;
}

int run_scale_leg(const util::Cli& cli, std::uint64_t seed,
                  const std::string& json_out) {
  const std::size_t n = cli.get_count("peers", 100000, sim::kMaxPeerCount);
  const double horizon = cli.get_double_in("horizon", 120.0, 1e-6, 1e9);

  const auto config = scale_config(n, horizon, seed);
  const double t_build = bench::wall_now();
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  const double build_wall = bench::wall_now() - t_build;
  const double start = bench::wall_now();
  swarm.run();
  const double wall = bench::wall_now() - start;

  bench::BenchRecord r;
  r.name = "scale/n=" + std::to_string(n);
  r.events = swarm.engine().events_processed();
  r.wall_s = wall;
  r.extra.emplace_back("build_wall_s", build_wall);

  util::Table table("micro_swarm: scale leg (BitTorrent, 8 MB file)");
  table.set_header({"N", "horizon (s)", "events", "build (s)", "run (s)",
                    "events/s"});
  table.add_row({std::to_string(n), util::Table::num(horizon, 0),
                 std::to_string(r.events),
                 util::Table::num(build_wall, 3), util::Table::num(wall, 3),
                 util::Table::num(r.events_per_sec(), 0)});
  std::printf("%s", table.render().c_str());
  std::printf("peak RSS: %ld kB\n", bench::peak_rss_kb());
  if (!json_out.empty()) {
    bench::write_bench_json(json_out, "micro_swarm_scale", {r});
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}

int run(const util::Cli& cli) {
  const auto seed = cli.get_u64("seed", 7);
  const std::string json_out = cli.get_string("json-out", "");
  if (cli.has("peers")) return run_scale_leg(cli, seed, json_out);
  const auto max_n = cli.get_count("max-n", 5000, sim::kMaxPeerCount);

  std::vector<bench::BenchRecord> records;
  util::Table table("micro_swarm: six-mechanism sweep throughput");
  table.set_header({"N", "mechanism", "events", "wall (s)", "events/s",
                    "ns/event"});

  for (std::size_t n : {std::size_t{100}, std::size_t{1000},
                        std::size_t{5000}}) {
    if (n > max_n) continue;
    bench::BenchRecord sweep;
    sweep.name = "sweep/n=" + std::to_string(n);
    for (core::Algorithm algo : core::kAllAlgorithms) {
      const auto config = sweep_config(algo, n, seed);
      sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
      metrics::RunMetrics collector;
      collector.install(swarm);
      const double start = bench::wall_now();
      swarm.run();
      const double wall = bench::wall_now() - start;

      bench::BenchRecord r;
      r.name = core::to_string(algo) + "/n=" + std::to_string(n);
      r.events = swarm.engine().events_processed();
      r.wall_s = wall;
      sweep.events += r.events;
      sweep.wall_s += r.wall_s;
      table.add_row({std::to_string(n), core::to_string(algo),
                     std::to_string(r.events), util::Table::num(r.wall_s, 3),
                     util::Table::num(r.events_per_sec(), 0),
                     util::Table::num(r.ns_per_event(), 1)});
      records.push_back(std::move(r));
    }
    table.add_row({std::to_string(n), "ALL (sweep)",
                   std::to_string(sweep.events),
                   util::Table::num(sweep.wall_s, 3),
                   util::Table::num(sweep.events_per_sec(), 0),
                   util::Table::num(sweep.ns_per_event(), 1)});
    records.push_back(std::move(sweep));
  }

  std::printf("%s", table.render().c_str());
  std::printf("peak RSS: %ld kB\n", bench::peak_rss_kb());
  if (!json_out.empty()) {
    bench::write_bench_json(json_out, "micro_swarm", records);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"run", "seed", "S", "random seed (default 7)"},
      {"run", "max-n", "N",
       "largest sweep population: 100, 1000, 5000 up to N (default 5000)"},
      {"run", "peers", "N",
       "run the single-swarm scale leg with N peers instead of the sweep"},
      {"run", "horizon", "S",
       "simulated seconds of the scale leg (default 120)"},
      {"output", "json-out", "FILE", "write the BENCH_swarm*.json document"},
  });
  return cli.run("micro_swarm -- six-mechanism swarm throughput benchmark", run);
}
