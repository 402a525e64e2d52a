// Fluid-backend throughput benchmark: RK4 steps per wall-clock second
// across the cross-validation scenario family (tests/core/
// fluid_crossval_test.cpp), plus the N = 10^6 extrapolation cell the
// backend exists for.
//
//   micro_fluid [--json-out FILE] [--seed S]
//
// --json-out writes the BENCH_fluid.json document consumed by
// tools/ci_bench_gate.sh; bench/baselines/BENCH_fluid.json is the
// committed baseline. Step counts are deterministic (the integrator is a
// pure function of the config), so the gate diffs them byte-for-byte --
// a changed step count means the stable-dt derivation or the scenario
// mapping moved, never noise.
//
// The N = 10^6 record doubles as the perf tripwire behind the crossval
// suite's < 1 s extrapolation gate: the committed baseline wall clock is
// ~0.1 s, so a regression back into denormal-crawl territory (or an
// accidentally finer step) shows up here long before the test's hard
// limit is at risk.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/fluid_model.h"
#include "exp/backend.h"
#include "sim/config.h"
#include "sim/faults.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace coopnet;

// The cross-validation scenario (8 MB / 128 KB, degree 30, 4000 s
// horizon): what the committed tolerance bands were measured on.
sim::SwarmConfig fluid_config(core::Algorithm algo, bool churn,
                              std::size_t n, std::uint64_t seed) {
  sim::SwarmConfig config;
  config.algorithm = algo;
  config.n_peers = n;
  config.file_bytes = 8LL * 1024 * 1024;
  config.piece_bytes = 128LL * 1024;
  config.graph.degree = 30;
  config.max_time = 4000.0;
  config.seed = seed;
  if (churn) {
    config.faults = sim::moderate_churn();
    config.faults.transfer_loss_rate = 0.05;
  }
  return config;
}

int run(const util::Cli& cli) {
  const auto seed = cli.get_u64("seed", 415);
  const std::string json_out = cli.get_string("json-out", "");

  struct Cell {
    std::string name;
    sim::SwarmConfig config;
  };
  std::vector<Cell> cells;
  // The six-mechanism sweep at the crossval N = 1000 cell.
  for (core::Algorithm algo : core::kAllAlgorithms) {
    cells.push_back({"fluid/" + core::to_string(algo) + "/n=1000",
                     fluid_config(algo, /*churn=*/false, 1000, seed)});
  }
  // Churn exercises the stage-resolved offline compartments (the state
  // vector doubles, the per-step cost with it).
  cells.push_back({"fluid/BitTorrent/churn/n=1000",
                   fluid_config(core::Algorithm::kBitTorrent, /*churn=*/true,
                                1000, seed)});
  // The extrapolation cell: same wall-clock class as N = 1000 by
  // construction (cost is O(steps * classes), independent of N).
  cells.push_back({"fluid/BitTorrent/n=1000000",
                   fluid_config(core::Algorithm::kBitTorrent, /*churn=*/false,
                                1000000, seed)});

  std::vector<bench::BenchRecord> records;
  util::Table table("micro_fluid: RK4 integration throughput");
  table.set_header({"cell", "steps", "wall (s)", "steps/s", "mean (s)"});
  for (const Cell& cell : cells) {
    const double start = bench::wall_now();
    const core::FluidReport report = exp::run_fluid_scenario(cell.config);
    const double wall = bench::wall_now() - start;

    bench::BenchRecord r;
    r.name = cell.name;
    r.events = report.steps;
    r.wall_s = wall;
    r.extra.emplace_back("completed_fraction", report.completed_fraction);
    table.add_row({cell.name, std::to_string(r.events),
                   util::Table::num(wall, 4),
                   util::Table::num(r.events_per_sec(), 0),
                   util::Table::num(report.mean_completion_time, 2)});
    records.push_back(std::move(r));
  }

  std::printf("%s", table.render().c_str());
  std::printf("peak RSS: %ld kB\n", bench::peak_rss_kb());
  if (!json_out.empty()) {
    bench::write_bench_json(json_out, "micro_fluid", records);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"run", "seed", "S", "random seed (default 415)"},
      {"output", "json-out", "FILE", "write the BENCH_fluid.json document"},
  });
  return cli.run("micro_fluid -- fluid-backend throughput benchmark", run);
}
