// Figure 4a overlay: event-simulated vs fluid-predicted completion
// curves, one chart per mechanism, plus the sim/fluid mean-gap table.
// This is the visual counterpart of tests/core/fluid_crossval_test.cpp:
// where the test pins |sim/fluid - 1| inside committed bands, this
// artifact shows *where* on the curve the two backends agree (the bulk of
// the S-curve) and where the mean-field limit frays (the discrete tail).
//
//   fig4_fluid_overlay [--scale mid|small|paper] [--n N] [--file-mb M]
//                      [--seed S] [--max-time T] [--jobs K] (--help: all)
//
// Defaults to --scale mid (300 peers, 32 MB) so the artifact renders in
// about a minute; both backends consume the identical SwarmConfig,
// scheduled through the same mixed-backend run_cells_mixed path the
// sweep tools use.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "exp/backend.h"

namespace {

using namespace coopnet;

// The simulator reports arrival-to-finish durations; the fluid curve is
// completed fraction vs absolute time. Shift the sim durations by the
// mean flash-crowd arrival offset (window / 2) to put both on the same
// axis -- a bounded error of at most the window (10 s) against
// completion times in the hundreds.
util::PlotSeries sim_completion_series(const metrics::RunReport& report,
                                       double arrival_offset) {
  util::PlotSeries s;
  s.name = "sim";
  std::vector<double> times = report.completion_times;
  std::sort(times.begin(), times.end());
  const double population =
      static_cast<double>(report.compliant_population);
  s.points.push_back({0.0, 0.0});
  for (std::size_t i = 0; i < times.size(); ++i) {
    s.points.push_back({times[i] + arrival_offset,
                        static_cast<double>(i + 1) / population});
  }
  return s;
}

util::PlotSeries fluid_completion_series(const core::FluidReport& report) {
  util::PlotSeries s;
  s.name = "fluid";
  s.points = report.completion_curve;
  return s;
}

// Each cell sets its own mechanism.
const exp::Scenario kScenario{"mid", nullptr, {"mechanism"}};

int run(const util::Cli& cli) {
  const sim::SwarmConfig base = kScenario.from_cli(cli);

  std::vector<sim::SwarmConfig> cells;
  std::vector<exp::Backend> backends;
  for (core::Algorithm algo : core::kAllAlgorithms) {
    sim::SwarmConfig config = base;
    config.algorithm = algo;
    cells.push_back(config);
    backends.push_back(exp::Backend::kEvent);
  }
  std::printf("Figure 4 fluid overlay: N = %zu, file = %lld MiB, seed = "
              "%llu\n",
              base.n_peers,
              static_cast<long long>(base.file_bytes / (1024 * 1024)),
              static_cast<unsigned long long>(base.seed));

  const exp::SweepResult sweep =
      exp::run_cells_mixed(cells, backends, exp::jobs_from_cli(cli));
  bench::print_sweep_timing(sweep.timing);
  const auto sim_reports = sweep.reports();

  util::Table table("sim vs fluid mean completion time");
  table.set_header({"Algorithm", "sim mean (s)", "fluid mean (s)",
                    "|sim/fluid - 1|", "sim done", "fluid done"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const metrics::RunReport& sim = sim_reports[i];
    const core::FluidReport fluid = exp::run_fluid_scenario(cells[i]);

    const bool both_finish = sim.completion_summary.count > 0 &&
                             std::isfinite(fluid.mean_completion_time);
    table.add_row(
        {core::to_string(cells[i].algorithm),
         sim.completion_summary.count > 0
             ? util::Table::num(sim.completion_summary.mean, 5)
             : "never",
         std::isfinite(fluid.mean_completion_time)
             ? util::Table::num(fluid.mean_completion_time, 5)
             : "never",
         both_finish ? util::Table::num(
                           std::abs(sim.completion_summary.mean /
                                        fluid.mean_completion_time -
                                    1.0),
                           3)
                     : "-",
         util::Table::num(sim.completed_fraction, 3),
         util::Table::num(fluid.completed_fraction, 3)});

    if (!both_finish) continue;
    const double offset = cells[i].flash_crowd_window / 2.0;
    std::printf("\n%s: completion fraction vs time (s)\n",
                core::to_string(cells[i].algorithm).c_str());
    std::printf("%s",
                util::line_chart({sim_completion_series(sim, offset),
                                  fluid_completion_series(fluid)},
                                 72, 16, "t (s)", "fraction")
                    .c_str());
  }
  std::printf("\n%s", table.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "fig4_fluid_overlay -- Figure 4a: event-simulated vs fluid-predicted "
      "completion curves",
      run);
}
