// Table I -- expected download rates in equilibrium with perfect piece
// availability, plus a simulation validation pass on a homogeneous swarm.
//
// Output: the analytic download utilization (d_i - u_S/N) per algorithm for
// representative users of a heterogeneous population, an n_BT sweep
// (ablation for the tit-for-tat group size), and a realized-vs-predicted
// throughput check against the event-driven simulator.
#include <cstdio>

#include "bench_common.h"
#include "core/capacity.h"
#include "core/equilibrium.h"

namespace {

using namespace coopnet;
using core::Algorithm;

void analytic_table(const std::vector<double>& caps,
                    const core::ModelParams& params) {
  const std::size_t n = caps.size();
  const std::vector<std::size_t> sample_users = {0, n / 4, n / 2, n - 1};

  util::Table table(
      "Table I: download utilization d_i - u_S/N (bytes/s), N = " +
      std::to_string(n));
  table.set_header({"Algorithm", "U_1 (fastest)", "U_N/4", "U_N/2",
                    "U_N (slowest)", "sum d_i / sum U_i"});
  for (Algorithm a : core::kAllAlgorithms) {
    const auto rates = core::equilibrium_rates(a, caps, params);
    std::vector<std::string> row = {core::to_string(a)};
    for (std::size_t u : sample_users) {
      row.push_back(util::Table::num(
          rates.download[u] - params.seeder_rate / static_cast<double>(n),
          5));
    }
    double total_d = 0.0, total_u = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total_d += rates.download[i];
      total_u += caps[i];
    }
    row.push_back(util::Table::num(total_d / total_u, 3));
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
}

void nbt_ablation(const std::vector<double>& caps) {
  util::Table table("Ablation: BitTorrent n_BT group size vs fastest user's "
                    "download utilization");
  table.set_header({"n_BT", "d_1 (fastest user)", "d_N (slowest user)"});
  for (int n_bt : {1, 2, 4, 8, 16}) {
    core::ModelParams params;
    params.n_bt = n_bt;
    const auto rates =
        core::equilibrium_rates(Algorithm::kBitTorrent, caps, params);
    table.add_row({std::to_string(n_bt),
                   util::Table::num(rates.download.front(), 5),
                   util::Table::num(rates.download.back(), 5)});
  }
  std::printf("\n%s", table.render().c_str());
}

void simulation_validation(const util::Cli& cli) {
  // Homogeneous capacities isolate the Table I prediction d_i = U_i (+
  // seeder share) for the fair algorithms and d_i = mean U for altruism.
  const double capacity = 256.0 * 1024;
  util::Table table(
      "Validation: realized per-user throughput vs Table I prediction "
      "(homogeneous 256 KiB/s swarm)");
  table.set_header({"Algorithm", "predicted d_i (B/s)",
                    "realized file/median-time (B/s)", "ratio"});

  const std::vector<Algorithm> algos = {
      Algorithm::kTChain, Algorithm::kBitTorrent, Algorithm::kFairTorrent,
      Algorithm::kReputation, Algorithm::kAltruism};
  std::vector<sim::SwarmConfig> cells;
  for (Algorithm a : algos) {
    sim::SwarmConfig config;
    config.algorithm = a;
    config.n_peers = cli.get_count("n", 120, sim::kMaxPeerCount);
    config.file_bytes = 64 * 128 * 1024;
    config.piece_bytes = 128 * 1024;
    config.capacities = core::CapacityDistribution::homogeneous(capacity);
    config.seeder_capacity = capacity;
    config.graph.degree = 40;
    config.flash_crowd_window = 2.0;
    config.tchain_grace = 8.0;
    config.max_time = 4000.0;
    config.seed = cli.get_u64("seed", 7);
    cells.push_back(config);
  }
  const exp::SweepResult sweep =
      exp::run_cells(cells, exp::jobs_from_cli(cli));
  const auto reports = sweep.reports();

  for (std::size_t i = 0; i < algos.size(); ++i) {
    const Algorithm a = algos[i];
    const auto& report = reports[i];
    const std::vector<double> caps(cells[i].n_peers, capacity);
    core::ModelParams params;
    params.seeder_rate = cells[i].seeder_capacity;
    const double predicted =
        core::equilibrium_rates(a, caps, params).download.front();
    const double realized =
        report.completion_times.empty()
            ? 0.0
            : static_cast<double>(cells[i].file_bytes) /
                  report.completion_summary.median;
    table.add_row({core::to_string(a), util::Table::num(predicted, 6),
                   util::Table::num(realized, 6),
                   util::Table::num(realized / predicted, 3)});
  }
  std::printf("\n%s", table.render().c_str());
  bench::print_sweep_timing(sweep.timing);
  std::printf(
      "\nExpected shape: ratios of order 1; reciprocity omitted (Table I "
      "row is 0 -- no exchange ever starts).\n");
}

}  // namespace

int run(const coopnet::util::Cli& cli) {
  util::Rng rng(cli.get_u64("seed", 7));
  const auto caps = core::sorted_descending(
      core::CapacityDistribution::default_mix().sample(
          cli.get_count("n", 1000, sim::kMaxPeerCount), rng));

  core::ModelParams params;
  params.seeder_rate = 4.0 * 1024 * 1024;

  analytic_table(caps, params);
  nbt_ablation(caps);
  if (!cli.has("no-sim")) simulation_validation(cli);
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "n", "N",
       "users in the analytic population (default 1000) and leechers in the "
       "simulation check (default 120)"},
      {"run", "seed", "S", "random seed (default 7)"},
      {"run", "no-sim", "", "skip the simulation check"},
  });
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "table1_equilibrium -- Table I: equilibrium download rates, with a "
      "simulation check",
      run);
}
