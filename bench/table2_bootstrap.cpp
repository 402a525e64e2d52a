// Table II -- bootstrap probabilities for a flash crowd, including the
// paper's example column (N=1000, n_S=1, K=5, z=500, pi_DR=0.5, n_BT=4,
// omega=0.75, n_FT=500), plus expected bootstrap times E[T_B(P)] (eq. 10)
// with a self-consistent z(t) trajectory, the Prop. 4 condition, and K /
// pi_DR / omega ablation sweeps.
#include <cstdio>

#include <map>

#include "bench_common.h"
#include "core/bootstrap.h"

namespace {

using namespace coopnet;
using core::Algorithm;
using core::BootstrapParams;

void example_column() {
  BootstrapParams params;  // defaults are exactly the paper's example
  util::Table table("Table II: bootstrap probability per timeslot "
                    "(example point: z(t) = 500)");
  table.set_header({"Algorithm", "p_B (computed)", "paper"});
  const std::map<Algorithm, std::string> paper = {
      {Algorithm::kReciprocity, "0.1%"}, {Algorithm::kTChain, "71.4%"},
      {Algorithm::kBitTorrent, "39.6%"}, {Algorithm::kFairTorrent, "71.4%"},
      {Algorithm::kReputation, "22.2%"}, {Algorithm::kAltruism, "91.8%"},
  };
  for (const auto& row : core::bootstrap_table(params, 500)) {
    table.add_row({core::to_string(row.algorithm),
                   util::Table::pct(row.probability),
                   paper.at(row.algorithm)});
  }
  std::printf("%s", table.render().c_str());
}

void probability_vs_z() {
  BootstrapParams params;
  std::vector<std::pair<std::string, util::TimeSeries>> series;
  for (Algorithm a : core::kAllAlgorithms) {
    util::TimeSeries ts(core::to_string(a));
    for (std::int64_t z = 0; z <= 1000; z += 50) {
      ts.add(static_cast<double>(z),
             core::bootstrap_probability(a, params, z));
    }
    series.push_back({core::to_string(a), std::move(ts)});
  }
  bench::print_series_chart(
      "Bootstrap probability vs bootstrapped users z(t)", series,
      "z(t)", "p_B");
}

void expected_times() {
  BootstrapParams params;
  util::Table table("Expected slots until a flash crowd of P newcomers is "
                    "bootstrapped (eq. 10, dynamic z(t), z0 = 0)");
  table.set_header({"Algorithm", "P = 100", "P = 500", "P = 999"});
  for (Algorithm a : core::kAllAlgorithms) {
    std::vector<std::string> row = {core::to_string(a)};
    for (std::int64_t P : {100, 500, 999}) {
      row.push_back(util::Table::num(
          core::expected_bootstrap_time_dynamic(a, params, P, 0), 5));
    }
    table.add_row(row);
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("Prop. 4 condition (eq. 14) at the example point: %s\n",
              core::altruism_beats_fairtorrent_condition(params)
                  ? "holds (altruism provably fastest)"
                  : "violated");
}

void sweeps() {
  util::Table k_sweep("Ablation: K (pieces per slot) vs p_B at z = 500");
  k_sweep.set_header({"K", "T-Chain", "FairTorrent", "Altruism"});
  for (std::int64_t K : {1, 2, 5, 10, 20}) {
    BootstrapParams params;
    params.pieces_per_slot = K;
    k_sweep.add_row(
        {std::to_string(K),
         util::Table::pct(core::bootstrap_probability(Algorithm::kTChain,
                                                      params, 500)),
         util::Table::pct(core::bootstrap_probability(
             Algorithm::kFairTorrent, params, 500)),
         util::Table::pct(core::bootstrap_probability(Algorithm::kAltruism,
                                                      params, 500))});
  }
  std::printf("\n%s", k_sweep.render().c_str());

  util::Table pidr("Ablation: pi_DR vs T-Chain p_B at z = 500 (with the "
                   "BitTorrent reference)");
  pidr.set_header({"pi_DR", "T-Chain p_B", "vs BitTorrent (39.6%)"});
  for (double pi : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    BootstrapParams params;
    params.pi_dr = pi;
    const double tc =
        core::bootstrap_probability(Algorithm::kTChain, params, 500);
    const double bt =
        core::bootstrap_probability(Algorithm::kBitTorrent, params, 500);
    pidr.add_row({util::Table::num(pi, 2), util::Table::pct(tc),
                  tc > bt ? "faster" : "slower"});
  }
  std::printf("\n%s", pidr.render().c_str());

  util::Table omega("Ablation: omega vs FairTorrent p_B at z = 500");
  omega.set_header({"omega", "FairTorrent p_B"});
  for (double w : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    BootstrapParams params;
    params.omega = w;
    omega.add_row({util::Table::num(w, 2),
                   util::Table::pct(core::bootstrap_probability(
                       Algorithm::kFairTorrent, params, 500))});
  }
  std::printf("\n%s", omega.render().c_str());
}

}  // namespace

int run(const coopnet::util::Cli&) {
  example_column();
  probability_vs_z();
  expected_times();
  sweeps();
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  return cli.run(
      "table2_bootstrap -- Table II: flash-crowd bootstrap probabilities and "
      "times",
      run);
}
