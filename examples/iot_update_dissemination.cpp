// Scenario: a cloud server pushes a firmware update to a fleet of IoT
// devices (the paper's introductory motivation). The operator must choose
// the incentive mechanism that disseminates the update fastest while
// keeping contributions balanced across devices with very different uplink
// capacities.
//
//   ./iot_update_dissemination [--devices 400] [--update-mb 16] [--seed 3]
//
// Output: time until 50% / 90% / 100% of the fleet holds the update, and
// the contribution balance, for each candidate mechanism.
#include <cstdio>

#include "exp/runner.h"
#include "util/cli.h"
#include "util/histogram.h"
#include "util/table.h"

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const auto devices =
      cli.get_count("devices", 400, sim::kMaxPeerCount);
  const auto update_mb =
      static_cast<long>(cli.get_count("update-mb", 16, 1L << 20));

  std::printf("IoT update dissemination: %zu devices, %ld MiB update, "
              "heterogeneous uplinks\n"
              "(cellular 64 KiB/s ... ethernet 2 MiB/s), one cloud "
              "seeder.\n\n",
              devices, update_mb);

  util::Table table("Mechanism comparison");
  table.set_header({"Mechanism", "50% fleet (s)", "90% fleet (s)",
                    "100% fleet (s)", "fairness F", "verdict"});

  for (core::Algorithm algo : core::kAllAlgorithms) {
    auto config = sim::SwarmConfig::paper_scale(
        algo, cli.get_u64("seed", 3));
    config.n_peers = devices;
    config.file_bytes = update_mb * 1024LL * 1024LL;
    config.piece_bytes = 128LL * 1024;
    // Device uplink mix: mostly constrained radio links, a few wired hubs.
    config.capacities = core::CapacityDistribution({
        {64.0 * 1024, 0.40},    // cellular
        {192.0 * 1024, 0.30},   // Wi-Fi, congested
        {512.0 * 1024, 0.20},   // Wi-Fi, good
        {2048.0 * 1024, 0.10},  // ethernet-backed hubs
    });
    config.seeder_capacity = 2.0 * 1024 * 1024;  // the cloud server
    config.graph.degree = 30;
    config.max_time = 3000.0;

    const auto report = exp::run_scenario(config);
    const auto cdf = metrics::completion_cdf(report);

    auto time_at = [&](double fraction) -> std::string {
      for (const auto& p : cdf) {
        if (p.fraction >= fraction) return util::Table::num(p.x, 5);
      }
      return "never";
    };
    const bool finished = report.completed_fraction >= 1.0 - 1e-9;
    std::string verdict;
    if (!finished) {
      verdict = "unusable: update never converges";
    } else if (report.final_fairness_F > 0.8) {
      verdict = "fast but drains the constrained devices";
    } else if (report.completion_summary.mean <
               2.5 * 60.0) {  // purely illustrative threshold
      verdict = "good balance";
    } else {
      verdict = "converges; slower tail";
    }
    table.add_row({core::to_string(algo), time_at(0.5), time_at(0.9),
                   time_at(1.0),
                   report.final_fairness_F < 0.0
                       ? "-"
                       : util::Table::num(report.final_fairness_F, 3),
                   verdict});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading the table: altruism converges fastest but pushes the most "
      "load onto\ndevices that did not benefit proportionally (highest F); "
      "pure reciprocity\nnever disseminates. The hybrids -- T-Chain "
      "especially -- spread the update\nnearly as fast while keeping "
      "contributions proportional to consumption,\nwhich is what a mixed "
      "battery-powered fleet needs.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "devices", "N", "devices (default 400)"},
      {"scenario", "update-mb", "MB", "update size, MiB (default 16)"},
      {"run", "seed", "S", "random seed (default 3)"},
  });
  return cli.run(
      "iot_update_dissemination -- pushing a firmware update to a "
      "heterogeneous device fleet",
      run);
}
