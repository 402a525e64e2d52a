// Extension bench (not a paper artifact): EigenTrust-backed reputation vs
// the paper's global-ledger reputation under the sybil-praise attack --
// quantifying footnote 6 ("more sophisticated reputation schemes that
// consider users' trustworthiness [4] can circumvent such false praise").
#include <cstdio>

#include "bench_common.h"

namespace {

// Reputation throughout; each cell sets the backend, the free-riders and
// the sybil attack.
const coopnet::exp::Scenario kScenario{
    "mid",
    [](coopnet::sim::SwarmConfig& c) {
      c.algorithm = coopnet::core::Algorithm::kReputation;
    },
    {"mechanism", "attack", "free-riders", "reputation"}};

}  // namespace

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const sim::SwarmConfig base = kScenario.from_cli(cli);

  std::printf("Extension: reputation backends under sybil praise "
              "(footnote 6), N = %zu\n\n", base.n_peers);

  util::Table table("Susceptibility: 20% free-riders, with and without "
                    "sybil praise");
  table.set_header({"backend", "plain free-riding", "+ sybil praise",
                    "mean compl. (s, honest swarm)"});
  // 3 cells per backend: plain free-riding, + sybil praise, honest swarm.
  const std::vector<sim::ReputationMode> modes = {
      sim::ReputationMode::kGlobalLedger, sim::ReputationMode::kEigenTrust};
  std::vector<sim::SwarmConfig> cells;
  for (auto mode : modes) {
    for (bool sybil : {false, true}) {
      auto config = base;
      config.reputation_mode = mode;
      config.free_rider_fraction = 0.2;
      config.attack.sybil_praise = sybil;
      cells.push_back(config);
    }
    auto honest = base;
    honest.reputation_mode = mode;
    cells.push_back(honest);
  }
  const exp::SweepResult sweep =
      exp::run_cells(cells, exp::jobs_from_cli(cli));
  const auto reports = sweep.reports();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const char* name = modes[m] == sim::ReputationMode::kEigenTrust
                           ? "EigenTrust [4]"
                           : "global ledger (paper Sec. V-A)";
    const std::size_t at = m * 3;
    table.add_row(
        {name, util::Table::pct(reports[at].susceptibility),
         util::Table::pct(reports[at + 1].susceptibility),
         util::Table::num(reports[at + 2].completion_summary.mean, 5)});
  }
  std::printf("%s", table.render().c_str());
  bench::print_sweep_timing(sweep.timing);
  std::printf(
      "\nExpected shape: sybil praise multiplies the ledger backend's leak "
      "several\ntimes over (forged reports enter the score directly) but "
      "leaves the\nEigenTrust backend untouched (trust is grounded in "
      "received service and\nanchored at the seeders), at comparable "
      "honest-swarm efficiency.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "ext_eigentrust -- extension: EigenTrust vs the global ledger under "
      "sybil praise",
      run);
}
