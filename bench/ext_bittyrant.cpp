// Extension bench (not a paper artifact): BitTyrant-style strategic
// clients [ref. 6, "Do incentives build robustness in BitTorrent?"].
//
// Strategic clients upload only the minimum that keeps tit-for-tat
// flowing. This bench measures their give-take advantage per mechanism --
// the complement of the free-riding analysis: robustness against
// *strategic* rather than *parasitic* deviation.
#include <cstdio>

#include "bench_common.h"

namespace {

// Each cell sets its own mechanism.
const coopnet::exp::Scenario kScenario{
    "mid", [](coopnet::sim::SwarmConfig& c) { c.strategic_fraction = 0.2; },
    {"mechanism"}};

}  // namespace

int run(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  const sim::SwarmConfig base = kScenario.from_cli(cli);

  std::printf("Extension: %.0f%% BitTyrant-style strategic clients, N = "
              "%zu\n\nGive-take ratio u/d: 1.0 = contributes as much as it "
              "consumes; lower =\nthe strategic client gets service it did "
              "not pay for.\n\n",
              base.strategic_fraction * 100.0, base.n_peers);

  util::Table table("Strategic advantage per mechanism");
  table.set_header({"Mechanism", "compliant u/d", "strategic u/d",
                    "advantage (1 - s/c)", "mean compl. (s)"});
  std::vector<sim::SwarmConfig> cells;
  for (core::Algorithm algo : core::kAllAlgorithmsExtended) {
    if (algo == core::Algorithm::kReciprocity) continue;  // nothing moves
    auto config = base;
    config.algorithm = algo;
    cells.push_back(config);
  }
  const exp::SweepResult sweep =
      exp::run_cells(cells, exp::jobs_from_cli(cli));
  const auto reports = sweep.reports();
  for (const auto& r : reports) {
    const core::Algorithm algo = r.algorithm;
    const bool defined =
        r.strategic_mean_ratio > 0.0 && r.compliant_mean_ratio > 0.0;
    table.add_row(
        {core::to_string(algo),
         r.compliant_mean_ratio < 0.0
             ? "-"
             : util::Table::num(r.compliant_mean_ratio, 3),
         r.strategic_mean_ratio < 0.0
             ? "-"
             : util::Table::num(r.strategic_mean_ratio, 3),
         defined ? util::Table::pct(
                       1.0 - r.strategic_mean_ratio / r.compliant_mean_ratio)
                 : "-",
         r.completion_times.empty()
             ? "-"
             : util::Table::num(r.completion_summary.mean, 5)});
  }
  std::printf("%s", table.render().c_str());
  bench::print_sweep_timing(sweep.timing);
  std::printf(
      "\nExpected shape: a clear strategic advantage under BitTorrent "
      "(tit-for-tat is\ngameable with minimal give-back); little to none "
      "under T-Chain and\nFairTorrent, whose per-piece accounting leaves "
      "nothing to save; altruism\nrewards not uploading at all (the "
      "strategic client is just a lazy peer).\n");
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare(coopnet::exp::jobs_flags());
  return cli.run(
      "ext_bittyrant -- extension: BitTyrant-style strategic clients under "
      "each mechanism",
      run);
}
