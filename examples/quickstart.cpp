// Quickstart: simulate one cooperative swarm and read the results.
//
//   ./quickstart [--algo T-Chain] [--n 200] [--seed 42]
//
// The five steps below are the whole public API surface most users need:
// configure a scenario, run it, and inspect the report. For analytical
// (closed-form) results without a simulation, see the core:: headers and
// the other examples.
#include <cstdio>

#include "exp/runner.h"
#include "util/cli.h"

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;

  // 1. Pick an incentive mechanism (all six of the paper's algorithms are
  //    available: Reciprocity, T-Chain, BitTorrent, FairTorrent,
  //    Reputation, Altruism).
  const core::Algorithm algo =
      core::algorithm_from_string(cli.get_string("algo", "T-Chain"));

  // 2. Configure the swarm. SwarmConfig::small is a fast demo scale;
  //    SwarmConfig::paper_scale reproduces Section V-A (1000 peers,
  //    128 MB file). Every knob is a plain struct field.
  auto config = sim::SwarmConfig::small(
      algo, cli.get_u64("seed", 42));
  config.n_peers = cli.get_count("n", 200, sim::kMaxPeerCount);
  config.max_time = 2000.0;

  // 3. Run. run_scenario wires the strategy, swarm, and metrics together.
  const metrics::RunReport report = exp::run_scenario(config);

  // 4. Read the one-line summary...
  std::printf("%s\n\n", metrics::summarize_report(report).c_str());

  // 5. ...or the detailed figures.
  std::printf("completed:            %zu of %zu compliant peers\n",
              report.completion_times.size(), report.compliant_population);
  if (!report.completion_times.empty()) {
    std::printf("completion time:      mean %.1f s, median %.1f s, p90 %.1f "
                "s\n",
                report.completion_summary.mean,
                report.completion_summary.median,
                report.completion_summary.p90);
  }
  if (!report.bootstrap_times.empty()) {
    std::printf("bootstrap time:       median %.2f s (first piece after "
                "arrival)\n",
                report.bootstrap_summary.median);
  }
  if (report.settled_fairness >= 0.0) {
    std::printf("fairness (mean u/d):  %.3f   (1.0 = every peer gives as "
                "much as it gets)\n",
                report.settled_fairness);
  }
  if (report.final_fairness_F >= 0.0) {
    std::printf("fairness F (eq. 3):   %.3f   (0.0 = perfectly fair)\n",
                report.final_fairness_F);
  }
  std::printf("bytes moved:          %.1f MiB uploaded swarm-wide\n",
              static_cast<double>(report.total_uploaded_bytes) /
                  (1024.0 * 1024.0));
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "algo", "NAME", "mechanism (default T-Chain)"},
      {"scenario", "n", "N", "leechers (default 200)"},
      {"run", "seed", "S", "random seed (default 42)"},
  });
  return cli.run(
      "quickstart -- simulate one cooperative swarm and read the results",
      run);
}
