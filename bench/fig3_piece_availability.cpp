// Figure 3 -- efficiency ranking under piece-availability constraints:
// expected piece-exchange probabilities per algorithm (eqs. 4-8, Prop. 2,
// Cor. 2) as functions of the swarm size and the piece-count mix.
//
// Output: expected pi per algorithm for flash-crowd / mid-swarm / steady
// mixes, the pi-vs-N convergence of T-Chain to altruism, and the eq. 8
// alpha_BT threshold (ablation over piece distributions).
#include <cstdio>

#include "bench_common.h"
#include "core/piece_availability.h"

namespace {

using namespace coopnet;
using core::PieceCountDistribution;

struct Mix {
  std::string name;
  PieceCountDistribution dist;
};

std::vector<Mix> mixes(std::int64_t M) {
  return {
      {"flash crowd (60% empty)",
       PieceCountDistribution::flash_crowd(0.6, M / 8, M)},
      {"synchronized early (all m=M/8)",
       PieceCountDistribution::point_mass(M / 8, M)},
      {"synchronized mid (all m=M/2)",
       PieceCountDistribution::point_mass(M / 2, M)},
      {"mid swarm (uniform 1..M-1)",
       PieceCountDistribution::uniform_interior(M)},
      {"endgame (all m=M-2)",
       PieceCountDistribution::point_mass(M - 2, M)},
  };
}

void pi_table(std::int64_t M, std::int64_t N, double alpha_bt) {
  util::Table table("Figure 3: expected piece-exchange probability E[pi] "
                    "(M = " + std::to_string(M) +
                    ", N = " + std::to_string(N) + ")");
  table.set_header({"piece mix", "altruism", "T-Chain",
                    "BitTorrent (a=" + util::Table::num(alpha_bt, 2) + ")",
                    "direct recip."});
  for (const auto& mix : mixes(M)) {
    const auto& d = mix.dist;
    const double pa = core::expected_pi(d, [&](auto mj, auto mi) {
      return core::pi_altruism(mj, mi, M);
    });
    const double tc = core::expected_pi(d, [&](auto mj, auto mi) {
      return core::pi_tchain(mj, mi, d, N);
    });
    const double bt = core::expected_pi(d, [&](auto mj, auto mi) {
      return core::pi_bittorrent(mj, mi, M, alpha_bt);
    });
    const double dr = core::expected_pi(d, [&](auto mj, auto mi) {
      return core::pi_direct_reciprocity(mj, mi, M);
    });
    table.add_row({mix.name, util::Table::num(pa, 4),
                   util::Table::num(tc, 4), util::Table::num(bt, 4),
                   util::Table::num(dr, 4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("Expected shape (Cor. 2): altruism >= T-Chain >= BitTorrent "
              ">= direct reciprocity,\nwith T-Chain -> altruism as N "
              "grows.\n");
}

void convergence_series(std::int64_t M) {
  const auto dist = PieceCountDistribution::uniform_interior(M);
  util::TimeSeries tc("T-Chain"), pa("Altruism"), bt("BitTorrent");
  for (std::int64_t N : {2, 3, 5, 10, 20, 50, 100, 300, 1000}) {
    const double x = static_cast<double>(N);
    tc.add(x, core::expected_pi(dist, [&](auto mj, auto mi) {
             return core::pi_tchain(mj, mi, dist, N);
           }));
    pa.add(x, core::expected_pi(dist, [&](auto mj, auto mi) {
             return core::pi_altruism(mj, mi, M);
           }));
    bt.add(x, core::expected_pi(dist, [&](auto mj, auto mi) {
             return core::pi_bittorrent(mj, mi, M, 0.2);
           }));
  }
  bench::print_series_chart("E[pi] vs swarm size N (mid-swarm mix): T-Chain "
                            "converges to altruism",
                            {{"T-Chain", tc}, {"Altruism", pa},
                             {"BitTorrent", bt}},
                            "N", "E[pi]");
}

void alpha_threshold_table(std::int64_t M, std::int64_t N) {
  util::Table table("Eq. 8: alpha_BT threshold below which pi_TC >= pi_BT");
  table.set_header({"piece mix", "threshold (m_j = M/4)",
                    "threshold (m_j = M/2)", "threshold (m_j = 3M/4)"});
  for (const auto& mix : mixes(M)) {
    table.add_row({mix.name,
                   util::Table::num(
                       core::alpha_bt_threshold(M / 4, mix.dist, N), 4),
                   util::Table::num(
                       core::alpha_bt_threshold(M / 2, mix.dist, N), 4),
                   util::Table::num(
                       core::alpha_bt_threshold(3 * M / 4, mix.dist, N),
                       4)});
  }
  std::printf("\n%s", table.render().c_str());
}

}  // namespace

int run(const coopnet::util::Cli& cli) {
  const auto M = static_cast<std::int64_t>(
      cli.get_count("pieces", 128, sim::kMaxPeerCount));
  const auto N = static_cast<std::int64_t>(
      cli.get_count("n", 1000, sim::kMaxPeerCount));
  const double alpha_bt = cli.get_double_in("alpha-bt", 0.2, 0.0, 1.0);

  pi_table(M, N, alpha_bt);
  convergence_series(M);
  alpha_threshold_table(M, N);
  return 0;
}

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare({
      {"scenario", "pieces", "M", "pieces in the file (default 128)"},
      {"scenario", "n", "N", "swarm size (default 1000)"},
      {"scenario", "alpha-bt", "F",
       "BitTorrent altruism share in [0, 1] (default 0.2)"},
  });
  return cli.run(
      "fig3_piece_availability -- Figure 3: piece-exchange probabilities "
      "under availability constraints",
      run);
}
