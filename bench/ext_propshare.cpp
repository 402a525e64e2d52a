// Extension bench (not a paper artifact): PropShare [ref. 5] vs BitTorrent.
//
// The paper's Related Work notes PropShare/BitTyrant as attempts to reduce
// BitTorrent's free-riding. This bench quantifies that within our
// framework: head-to-head efficiency, fairness, bootstrap, and
// susceptibility, plus a free-rider-fraction sweep.
#include <cstdio>

#include "bench_common.h"

namespace {

// Each cell sets its own mechanism and free-rider fraction.
const coopnet::exp::Scenario kScenario{"mid", nullptr,
                                       {"mechanism", "free-riders"}};

}  // namespace

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const sim::SwarmConfig base = kScenario.from_cli(cli);

  std::printf("Extension: PropShare (proportional-share reciprocity) vs "
              "BitTorrent, N = %zu\n\n", base.n_peers);

  // One batch: 2 head-to-head cells followed by the 4x2 free-rider sweep.
  const std::vector<core::Algorithm> pair = {core::Algorithm::kBitTorrent,
                                             core::Algorithm::kPropShare};
  const std::vector<double> fractions = {0.1, 0.2, 0.3, 0.4};
  std::vector<sim::SwarmConfig> cells;
  for (core::Algorithm algo : pair) {
    auto config = base;
    config.algorithm = algo;
    cells.push_back(config);
  }
  for (double f : fractions) {
    for (core::Algorithm algo : pair) {
      auto config = base;
      config.algorithm = algo;
      config.free_rider_fraction = f;
      cells.push_back(config);
    }
  }
  const exp::SweepResult result =
      exp::run_cells(cells, exp::jobs_from_cli(cli));
  const auto reports = result.reports();

  util::Table table("Head-to-head (no free-riders)");
  table.set_header({"Mechanism", "mean compl. (s)", "fairness F",
                    "boot median (s)"});
  for (std::size_t i = 0; i < pair.size(); ++i) {
    const auto& r = reports[i];
    table.add_row({core::to_string(pair[i]),
                   util::Table::num(r.completion_summary.mean, 5),
                   util::Table::num(r.final_fairness_F, 4),
                   util::Table::num(r.bootstrap_summary.median, 4)});
  }
  std::printf("%s", table.render().c_str());

  util::Table sweep("Susceptibility vs free-rider fraction (plain "
                    "free-riding)");
  sweep.set_header({"free-riders", "BitTorrent", "PropShare"});
  std::size_t cell = pair.size();
  for (double f : fractions) {
    std::vector<std::string> row = {util::Table::pct(f, 0)};
    for (std::size_t a = 0; a < pair.size(); ++a) {
      row.push_back(util::Table::pct(reports[cell++].susceptibility));
    }
    sweep.add_row(row);
  }
  std::printf("\n%s", sweep.render().c_str());
  bench::print_sweep_timing(result.timing);
  std::printf(
      "\nExpected shape: PropShare matches BitTorrent's efficiency tier "
      "while being\nat least as fair (proportional response) and leaking "
      "no more than the\nalpha_BT altruism budget to free-riders.\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "ext_propshare -- extension: PropShare vs BitTorrent, head to head and "
      "under free-riding",
      run);
}
