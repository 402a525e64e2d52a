// Scenario: a flash crowd hits an exchange network and every newcomer
// needs its first piece ("bootstrapping", Section IV-B). This example
// contrasts the analytical Table II model with simulation: both the
// closed-form per-timeslot probabilities and the measured time-to-first-
// piece distribution for each mechanism.
//
//   ./flash_crowd_bootstrap [--n 300] [--seed 9]
#include <cstdio>

#include "core/bootstrap.h"
#include "exp/runner.h"
#include "util/cli.h"
#include "util/table.h"

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const auto n = cli.get_count("n", 300, sim::kMaxPeerCount);

  // --- analytical side: Table II at this swarm's scale -------------------
  core::BootstrapParams params;
  params.n_users = static_cast<std::int64_t>(n);
  params.n_ft = params.n_users / 2;
  const std::int64_t z = params.n_users / 2;

  std::printf("Flash crowd of %zu users; analytical bootstrap probability "
              "per timeslot\nonce half the swarm holds pieces (Table II), "
              "and the expected slots until\nall newcomers are bootstrapped "
              "(eq. 10):\n\n",
              n);
  util::Table analytic("");
  analytic.set_header(
      {"Mechanism", "p_B at z=N/2", "E[slots] for N/2 newcomers"});
  for (core::Algorithm algo : core::kAllAlgorithms) {
    analytic.add_row(
        {core::to_string(algo),
         util::Table::pct(core::bootstrap_probability(algo, params, z)),
         util::Table::num(core::expected_bootstrap_time_dynamic(
                              algo, params, params.n_users / 2, z),
                          4)});
  }
  std::printf("%s", analytic.render().c_str());

  // --- simulated side: measured time-to-first-piece ----------------------
  std::printf("\nSimulated flash crowd (same population, event-driven "
              "swarm):\n\n");
  util::Table sim_table("");
  sim_table.set_header({"Mechanism", "median bootstrap (s)",
                        "p90 bootstrap (s)", "bootstrapped"});
  for (core::Algorithm algo : core::kAllAlgorithms) {
    auto config = sim::SwarmConfig::paper_scale(
        algo, cli.get_u64("seed", 9));
    config.n_peers = n;
    config.file_bytes = 32LL * 1024 * 1024;
    config.graph.degree = 30;
    config.max_time = 600.0;  // bootstrap happens early; no need to finish
    const auto report = exp::run_scenario(config);
    sim_table.add_row(
        {core::to_string(algo),
         report.bootstrap_times.empty()
             ? "-"
             : util::Table::num(report.bootstrap_summary.median, 4),
         report.bootstrap_times.empty()
             ? "-"
             : util::Table::num(report.bootstrap_summary.p90, 4),
         util::Table::pct(report.bootstrapped_fraction, 0)});
  }
  std::printf("%s", sim_table.render().c_str());
  std::printf(
      "\nBoth views agree on the ordering (Prop. 4): altruism, FairTorrent "
      "and\nT-Chain bootstrap newcomers almost immediately; BitTorrent's "
      "tit-for-tat\nslots and the reputation system's zero-reputation "
      "newcomers are an order of\nmagnitude slower; pure reciprocity leaves "
      "bootstrapping entirely to the\nseeder.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "n", "N", "flash-crowd size (default 300)"},
      {"run", "seed", "S", "random seed (default 9)"},
  });
  return cli.run(
      "flash_crowd_bootstrap -- analytical vs simulated flash-crowd "
      "bootstrapping",
      run);
}
