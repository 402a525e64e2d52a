// Figure 4 -- performance with all users compliant: (a) completion-time
// CDFs (efficiency), (b) fairness vs time, (c) bootstrapping CDFs, for all
// six algorithms on the Section V-A scenario.
//
// Scales: --scale=paper (default, 1000 peers / 128 MB), mid, small;
// --csv dumps the raw series. A failing algorithm cell is quarantined
// into its table row instead of aborting the sweep, and exit code 3 flags
// the degraded sweep. The sweep flags (--cell-timeout, --event-budget,
// --journal, --resume; see exp/supervise.h) add watchdogs and a
// resumable journal.
#include <cstdio>

#include "bench_common.h"

using namespace coopnet;

namespace {

// The suite sets the mechanism per cell and, with free-riders, their
// targeted attack.
const exp::Scenario kScenario{"paper", nullptr, {"mechanism", "attack"}};

int run(const util::Cli& cli) {
  const sim::SwarmConfig config = kScenario.from_cli(cli);
  const exp::SweepControl control = exp::sweep_control_from_cli(cli);
  const fleet::FleetControl fleet = fleet::fleet_control_from_cli(cli);
  if (fleet.worker()) {
    return bench::run_fleet_worker(bench::figure_suite_cells(config),
                                   config.seed, fleet, control.supervision,
                                   control.checkpoint.every);
  }

  std::printf("Figure 4: compliant swarm, N = %zu, file = %lld MiB, seed = "
              "%llu\n\n",
              config.n_peers,
              static_cast<long long>(config.file_bytes / (1024 * 1024)),
              static_cast<unsigned long long>(config.seed));
  const exp::SweepResult sweep = bench::run_figure_suite(
      config, /*with_susceptibility=*/false, exp::jobs_from_cli(cli),
      control, fleet);
  bench::print_fluid_overlay(config, sweep.ok_reports());

  std::printf(
      "\nExpected shape (Fig. 4): altruism completes fastest; reciprocity "
      "never\ncompletes; T-Chain/BitTorrent/FairTorrent comparable; "
      "fairness near 1 for the\nexchanging algorithms with T-Chain/"
      "FairTorrent the most fair by eq. 3;\nbootstrap: altruism ~ "
      "FairTorrent ~ T-Chain << BitTorrent < reputation <<\nreciprocity.\n");
  bench::maybe_dump_csv(cli, sweep);
  return sweep.complete() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  bench::declare_sweep_flags(cli);
  return cli.run(
      bench::sweep_about(
          "fig4_compliant -- Figure 4: every mechanism on a compliant swarm"),
      run);
}
