// Scenario: the same swarm run three times -- on an ideal transport, on a
// lossy one, and through heavy churn -- to show what the fault layer does
// and how to read its counters.
//
// The paper's evaluation (Section V) assumes transfers always complete and
// peers stay until they finish. Real swarms are messier: connections drop,
// peers leave mid-download and come back, the seeder goes away for a
// while. FaultConfig injects exactly those failures, deterministically.
//
//   ./unreliable_swarm [--algo T-Chain] [--n 60] [--seed 11]
#include <cstdio>

#include "exp/runner.h"
#include "sim/faults.h"
#include "util/cli.h"
#include "util/table.h"

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const core::Algorithm algo =
      core::algorithm_from_string(cli.get_string("algo", "T-Chain"));

  auto base = sim::SwarmConfig::small(
      algo, cli.get_u64("seed", 11));
  base.n_peers = cli.get_count("n", 60, sim::kMaxPeerCount);

  struct Variant {
    const char* name;
    sim::FaultConfig faults;
  };
  Variant variants[] = {
      {"ideal transport", sim::FaultConfig{}},
      {"20% transfer loss", sim::lossy_faults(0.20)},
      {"heavy churn", sim::heavy_churn()},
  };

  std::printf("%s, %zu peers, same seed for all three runs.\n\n",
              core::to_string(algo).c_str(), base.n_peers);

  util::Table table("One swarm, three transports");
  table.set_header({"Transport", "finished", "mean compl. (s)", "retries",
                    "abandoned", "departed", "rejoined", "lost for good",
                    "goodput"});
  for (const Variant& v : variants) {
    sim::SwarmConfig config = base;
    config.faults = v.faults;
    const metrics::RunReport r = exp::run_scenario(config);
    const auto& f = r.faults;
    table.add_row(
        {v.name,
         std::to_string(r.completion_times.size()) + "/" +
             std::to_string(r.compliant_population),
         r.completion_times.empty()
             ? "never"
             : util::Table::num(r.completion_summary.mean, 5),
         std::to_string(f.retries_scheduled),
         std::to_string(f.transfers_abandoned),
         std::to_string(f.churn_departures),
         std::to_string(f.churn_rejoins), std::to_string(f.churn_losses),
         util::Table::pct(r.goodput_ratio)});
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nHow to read this:\n"
      " - Retries are the swarm re-attempting failed transfers with capped\n"
      "   exponential backoff; abandoned transfers exhausted their retries\n"
      "   (the piece is then re-requested through the normal machinery).\n"
      " - Departed peers left abruptly mid-download; rejoined ones came\n"
      "   back with their piece sets intact. Peers lost for good lower the\n"
      "   achievable completion rate.\n"
      " - Goodput is delivered payload over offered payload: the slot time\n"
      "   wasted on failed transfers is the gap to 100%%.\n"
      "\nSame seed + same FaultConfig reproduces a run bit for bit; a\n"
      "default FaultConfig is exactly the ideal simulator.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "algo", "NAME", "mechanism (default T-Chain)"},
      {"scenario", "n", "N", "leechers (default 60)"},
      {"run", "seed", "S", "random seed (default 11)"},
  });
  return cli.run(
      "unreliable_swarm -- one mechanism under increasing transfer loss and "
      "churn",
      run);
}
