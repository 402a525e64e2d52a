// Figure 6 -- Figure 5's free-riding attacks plus the large-view exploit:
// free-riders connect to several times more neighbors than compliant peers
// (default 4x; --view-mult to sweep).
//
// A failing cell is quarantined into its table row and exit code 3 flags
// the degraded coverage. The sweep flags (--cell-timeout, --event-budget,
// --journal, --resume) add watchdogs and a resumable journal.
#include <cstdio>

#include "bench_common.h"

using namespace coopnet;

namespace {

const exp::Scenario kScenario{"paper",
                              [](sim::SwarmConfig& c) {
                                c.free_rider_fraction = 0.2;
                                c.attack.large_view = true;
                              },
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

  std::printf("Figure 6: %.0f%% free-riders, targeted attacks + large-view "
              "exploit (%gx neighbors), N = %zu, seed = %llu\n\n",
              config.free_rider_fraction * 100.0,
              config.graph.large_view_multiplier, config.n_peers,
              static_cast<unsigned long long>(config.seed));
  const std::size_t jobs = exp::jobs_from_cli(cli);
  const exp::SweepResult sweep = bench::run_figure_suite(
      config, /*with_susceptibility=*/true, jobs, control, fleet);

  std::printf(
      "\nExpected shape (Fig. 6): susceptibility rises vs Fig. 5 for the "
      "algorithms\nthat ration their leak per neighborhood (T-Chain, "
      "BitTorrent, FairTorrent);\naltruism/reputation were already handing "
      "free-riders their full demand share.\nT-Chain stays ~1%% and is now "
      "visibly more efficient and fair than the\nsusceptible hybrids.\n");
  bench::maybe_dump_csv(cli, sweep);

  if (cli.has("sweep-view")) {
    std::printf("\nAblation: large-view multiplier vs susceptibility "
                "(BitTorrent)\n");
    util::Table table("");
    table.set_header({"multiplier", "susceptibility"});
    const std::vector<double> mults = {1.0, 2.0, 4.0, 8.0};
    std::vector<sim::SwarmConfig> cells;
    for (double mult : mults) {
      auto c = config;
      c.algorithm = core::Algorithm::kBitTorrent;
      c.graph.large_view_multiplier = mult;
      c = exp::with_freeriders(c, c.free_rider_fraction, mult > 1.0);
      cells.push_back(c);
    }
    const exp::SweepResult ablation = exp::run_cells(cells, jobs);
    const auto reports = ablation.reports();
    for (std::size_t i = 0; i < mults.size(); ++i) {
      table.add_row({util::Table::num(mults[i], 2),
                     util::Table::pct(reports[i].susceptibility)});
    }
    std::printf("%s", table.render().c_str());
    bench::print_sweep_timing(ablation.timing);
  }
  return sweep.complete() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare({{"output", "sweep-view", "",
                "also sweep the BitTorrent large-view multiplier over 1, 2, "
                "4, 8"}});
  bench::declare_sweep_flags(cli);
  return cli.run(
      bench::sweep_about(
          "fig6_largeview -- Figure 6: Figure 5 plus the large-view exploit"),
      run);
}
