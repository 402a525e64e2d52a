// Figure 5 -- performance with 20% free-riders mounting each algorithm's
// most effective attack (Section V-B2): (a) susceptibility, (b) efficiency,
// (c) fairness. Attacks: plain free-riding everywhere, plus collusion vs
// T-Chain, whitewashing vs FairTorrent, sybil praise vs reputation.
//
// A failing cell is quarantined into its table row and exit code 3 flags
// the degraded coverage. The sweep flags (--cell-timeout, --event-budget,
// --journal, --resume) add watchdogs and a resumable journal.
#include <cstdio>

#include "bench_common.h"

using namespace coopnet;

namespace {

const exp::Scenario kScenario{
    "paper",
    [](sim::SwarmConfig& c) { c.free_rider_fraction = 0.2; },
    {"mechanism", "attack"}};

int run(const util::Cli& cli) {
  const sim::SwarmConfig config = kScenario.from_cli(cli);
  const exp::SweepControl control = exp::sweep_control_from_cli(cli);
  const fleet::FleetControl fleet = fleet::fleet_control_from_cli(cli);
  if (fleet.worker()) {
    return bench::run_fleet_worker(bench::figure_suite_cells(config),
                                   config.seed, fleet, control.supervision,
                                   control.checkpoint.every);
  }

  std::printf("Figure 5: %.0f%% free-riders with targeted attacks, N = %zu, "
              "file = %lld MiB, seed = %llu\n\n",
              config.free_rider_fraction * 100.0, config.n_peers,
              static_cast<long long>(config.file_bytes / (1024 * 1024)),
              static_cast<unsigned long long>(config.seed));
  const exp::SweepResult sweep = bench::run_figure_suite(
      config, /*with_susceptibility=*/true, exp::jobs_from_cli(cli),
      control, fleet);

  std::printf(
      "\nExpected shape (Fig. 5): susceptibility ~0 for reciprocity and "
      "T-Chain;\naltruism and (sybil-attacked) reputation highest; "
      "BitTorrent and FairTorrent\nin between. Efficiency and fairness of "
      "the susceptible algorithms degrade\nrelative to Fig. 4; T-Chain "
      "barely moves.\n");
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
          "fig5_freeriders -- Figure 5: free-riders mount targeted attacks"),
      run);
}
