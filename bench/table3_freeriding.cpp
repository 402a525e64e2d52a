// Table III -- resources available for free-riding: exploitable upload
// bandwidth and collusion probability per algorithm, with ablation sweeps
// over alpha_BT, alpha_R, omega, and the collusion-ring size, plus a
// simulation cross-check of the exploitable-resources ordering.
#include <cstdio>

#include "bench_common.h"
#include "core/capacity.h"
#include "core/freeriding.h"
#include "core/piece_availability.h"

namespace {

using namespace coopnet;
using core::Algorithm;

void main_table(const std::vector<double>& caps) {
  core::ModelParams params;
  const double omega = 0.75;
  core::CollusionParams collusion;
  collusion.n_users = static_cast<std::int64_t>(caps.size());
  collusion.n_colluders = collusion.n_users / 5;  // the paper's 20%
  const auto dist = core::PieceCountDistribution::uniform_interior(128);
  collusion.pi_ir = core::expected_pi(dist, [&](auto mj, auto mi) {
    return core::pi_indirect_reciprocity(mj, mi, dist, collusion.n_users);
  });

  const double total = core::total_capacity(caps);
  util::Table table("Table III: resources available for free-riding "
                    "(total capacity = " +
                    util::Table::num(total / (1024 * 1024), 4) + " MiB/s)");
  table.set_header({"Algorithm", "exploitable (MiB/s)", "share of total",
                    "collusion exposure", "collusion probability"});
  for (const auto& row :
       core::freeriding_table(caps, params, omega, collusion)) {
    table.add_row(
        {core::to_string(row.algorithm),
         util::Table::num(row.exploitable_resources / (1024 * 1024), 4),
         util::Table::pct(row.exploitable_resources / total),
         core::to_string(row.exposure),
         row.collusion_probability < 0.0
             ? "n/a"
             : util::Table::num(row.collusion_probability, 4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("FairTorrent deficit bound (O(log N), [7]): %.2f pieces for "
              "N = %zu\n",
              core::fairtorrent_deficit_bound(
                  static_cast<std::int64_t>(caps.size())),
              caps.size());
}

void sweeps(const std::vector<double>& caps) {
  const double total = core::total_capacity(caps);
  util::Table sweep("Ablation: altruism-share knobs vs exploitable share "
                    "of total capacity");
  sweep.set_header({"knob value", "BitTorrent (alpha_BT)",
                    "Reputation (alpha_R)", "FairTorrent (1 - omega)"});
  for (double v : {0.0, 0.1, 0.2, 0.4, 0.8}) {
    core::ModelParams bt_params;
    bt_params.alpha_bt = v;
    core::ModelParams rep_params;
    rep_params.alpha_r = v;
    sweep.add_row(
        {util::Table::num(v, 2),
         util::Table::pct(core::exploitable_resources(
                              Algorithm::kBitTorrent, caps, bt_params, 0.75) /
                          total),
         util::Table::pct(core::exploitable_resources(
                              Algorithm::kReputation, caps, rep_params,
                              0.75) /
                          total),
         util::Table::pct(core::exploitable_resources(
                              Algorithm::kFairTorrent, caps, {}, 1.0 - v) /
                          total)});
  }
  std::printf("\n%s", sweep.render().c_str());

  util::Table ring("Ablation: collusion-ring size m vs T-Chain collusion "
                   "probability (N = 1000, pi_IR = 0.1)");
  ring.set_header({"m", "probability"});
  for (std::int64_t m : {0, 10, 50, 200, 500, 1000}) {
    core::CollusionParams c;
    c.n_users = 1000;
    c.n_colluders = m;
    c.pi_ir = 0.1;
    ring.add_row({std::to_string(m),
                  util::Table::num(core::tchain_collusion_probability(c), 5)});
  }
  std::printf("\n%s", ring.render().c_str());
}

void simulation_cross_check(const util::Cli& cli) {
  std::printf("\nSimulation cross-check: realized susceptibility with 20%% "
              "free-riders\n(plain free-riding only -- no targeted "
              "attacks; mid scale).\n");
  util::Table table("");
  table.set_header({"Algorithm", "Table III exploitable share",
                    "realized susceptibility"});
  util::Rng rng(cli.get_u64("seed", 7));
  const auto caps = core::sorted_descending(
      core::CapacityDistribution::default_mix().sample(300, rng));
  const double total = core::total_capacity(caps);

  std::vector<sim::SwarmConfig> cells;
  for (Algorithm a : core::kAllAlgorithms) {
    auto config = sim::SwarmConfig::paper_scale(a, 7);
    config.n_peers = 300;
    config.file_bytes = 32LL * 1024 * 1024;
    config.graph.degree = 30;
    config.max_time = 1500.0;
    config.free_rider_fraction = 0.2;  // plain free-riding, no extra attack
    cells.push_back(config);
  }
  const exp::SweepResult sweep =
      exp::run_cells(cells, exp::jobs_from_cli(cli));
  const auto reports = sweep.reports();
  for (std::size_t i = 0; i < core::kAllAlgorithms.size(); ++i) {
    const Algorithm a = core::kAllAlgorithms[i];
    table.add_row(
        {core::to_string(a),
         util::Table::pct(
             core::exploitable_resources(a, caps, {}, 0.75) / total),
         util::Table::pct(reports[i].susceptibility)});
  }
  std::printf("%s", table.render().c_str());
  bench::print_sweep_timing(sweep.timing);
  std::printf("Expected shape: both columns rank reciprocity = T-Chain ~ 0 "
              "< reputation/BitTorrent/FairTorrent < altruism.\n");
}

}  // namespace

int run(const coopnet::util::Cli& cli) {
  util::Rng rng(cli.get_u64("seed", 7));
  const auto caps = core::sorted_descending(
      core::CapacityDistribution::default_mix().sample(
          cli.get_count("n", 1000, sim::kMaxPeerCount), rng));

  main_table(caps);
  sweeps(caps);
  if (!cli.has("no-sim")) simulation_cross_check(cli);
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "n", "N", "users in the analytic population (default 1000)"},
      {"run", "seed", "S", "random seed (default 7)"},
      {"run", "no-sim", "", "skip the simulation check"},
  });
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "table3_freeriding -- Table III: resources available to free-riders, "
      "with a simulation check",
      run);
}
