// Cross-validation of the mean-field fluid backend (DESIGN §12) against
// the event simulator: every mechanism x {clean, moderate churn + 5%
// loss} x N in {500, 1000, 5000}, same SwarmConfig on both backends.
//
// Methodology. The per-mechanism efficiency constants in
// core::fluid_mechanism_efficiency() were calibrated ONCE against the
// clean N = 5000 cell (N = 1000 for Reciprocity, whose seeder-paced
// drain needs ~N*F/u_S > max_time seconds at N = 5000 -- both backends
// agree nobody finishes there). Everything below is therefore a
// prediction, not a fit: the committed tolerance bands are the measured
// relative error of the calibrated model at the *other* grid points,
// plus headroom, and they quantify the extrapolation error of the
// N = 10^6 fluid runs the event simulator cannot check directly.
//
// Measured |sim_mean / fluid_mean - 1| at calibration time (seed 415):
//
//                       clean                      churn
//              N=500   N=1000  N=5000     N=500   N=1000  N=5000
//   Reciprocity 0.0023  0.0003  (none)     0.0043  0.0180  (none)
//   T-Chain     0.1039  0.0476  0.0002     0.0824  0.0222  0.0213
//   BitTorrent  0.3149  0.2396  0.0029     0.3149  0.2214  0.0062
//   FairTorrent 0.0864  0.0688  0.0005     0.0195  0.0151  0.0172
//   Reputation  0.5246  0.4658  0.0008     0.5110  0.4395  0.0025
//   Altruism    0.0407  0.0184  0.0004     0.0414  0.0370  0.0371
//
// Two structural facts the table shows, asserted by the convergence
// test: the gap shrinks monotonically as N grows (the mean-field limit
// argument at work -- on clean cells strictly, under churn within a
// small seed-noise slack), and the large N = 500 gaps for BitTorrent /
// Reputation are real finite-size effects (optimistic-unchoke /
// reputation-warmup contention scales with N in the simulator), not
// model noise.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "exp/backend.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "metrics/report.h"
#include "sim/config.h"
#include "sim/faults.h"

namespace coopnet::core {
namespace {

constexpr std::size_t kGridN[] = {500, 1000, 5000};

// Committed tolerance bands: measured gap (table above) + headroom for
// platform wobble. A regression that pushes a cell past its band means
// the fluid model (or the simulator) changed behaviour for that
// mechanism -- recalibrate deliberately, do not widen the band.
struct Bands {
  double n500;
  double n1000;
  double n5000;
  double at(std::size_t n) const {
    return n == 500 ? n500 : n == 1000 ? n1000 : n5000;
  }
};

const std::map<Algorithm, Bands> kCleanBands = {
    {Algorithm::kReciprocity, {0.02, 0.02, 0.0}},  // n5000: no completions
    {Algorithm::kTChain, {0.14, 0.08, 0.02}},
    {Algorithm::kBitTorrent, {0.38, 0.30, 0.03}},
    {Algorithm::kFairTorrent, {0.12, 0.10, 0.02}},
    {Algorithm::kReputation, {0.60, 0.53, 0.02}},
    {Algorithm::kAltruism, {0.07, 0.04, 0.02}},
};

const std::map<Algorithm, Bands> kChurnBands = {
    {Algorithm::kReciprocity, {0.03, 0.05, 0.0}},  // n5000: no completions
    {Algorithm::kTChain, {0.12, 0.06, 0.05}},
    {Algorithm::kBitTorrent, {0.38, 0.28, 0.03}},
    {Algorithm::kFairTorrent, {0.05, 0.04, 0.04}},
    {Algorithm::kReputation, {0.57, 0.50, 0.03}},
    {Algorithm::kAltruism, {0.07, 0.06, 0.06}},
};

// Seeder-paced Reciprocity cannot finish N * 8 MB through a 4 MB/s
// seeder inside max_time at N = 5000; both backends must agree.
bool no_completion_cell(Algorithm algo, std::size_t n) {
  return algo == Algorithm::kReciprocity && n == 5000;
}

// The exact configuration the calibration grid ran (tools/coopnet_run
// --file-mb 8 --piece-kb 128 --max-time 4000 --seed 415 [--churn
// moderate --loss 0.05]); both backends consume this one description.
sim::SwarmConfig crossval_config(Algorithm algo, bool churn,
                                 std::size_t n) {
  sim::SwarmConfig config;
  config.algorithm = algo;
  config.n_peers = n;
  config.file_bytes = 8LL * 1024 * 1024;
  config.piece_bytes = 128LL * 1024;
  config.graph.degree = 30;
  config.max_time = 4000.0;
  config.seed = 415;
  // These tests check sim-vs-fluid agreement, not the auditor: audit
  // builds check the invariants at every 10000th event instead of every
  // one. Auditing never changes results, so the compared numbers are the
  // same.
  config.audit_every = 10000;
  if (churn) {
    config.faults = sim::moderate_churn();
    config.faults.transfer_loss_rate = 0.05;
  }
  return config;
}

struct CellKey {
  Algorithm algo;
  bool churn;
  std::size_t n;
};

std::string cell_label(const CellKey& key) {
  return to_string(key.algo) + (key.churn ? "/churn" : "/clean") + "/n=" +
         std::to_string(key.n);
}

struct GridResults {
  std::vector<CellKey> keys;
  std::vector<metrics::RunReport> sim;  // same order as keys
  std::vector<FluidReport> fluid;       // same order as keys
};

// Runs the whole grid exactly once for the suite: the 36 event cells as
// one supervised run_cells sweep, then the same 36 configs on the fluid
// backend.
const GridResults& grid() {
  static const GridResults results = [] {
    GridResults r;
    std::vector<sim::SwarmConfig> cells;
    for (Algorithm algo : kAllAlgorithms) {
      for (bool churn : {false, true}) {
        for (std::size_t n : kGridN) {
          r.keys.push_back({algo, churn, n});
          cells.push_back(crossval_config(algo, churn, n));
        }
      }
    }
    r.sim = exp::run_cells(cells, /*jobs=*/0).reports();
    for (const sim::SwarmConfig& config : cells) {
      r.fluid.push_back(exp::run_fluid_scenario(config));
    }
    return r;
  }();
  return results;
}

double gap_of(const metrics::RunReport& sim, const FluidReport& fluid) {
  return std::abs(sim.completion_summary.mean / fluid.mean_completion_time -
                  1.0);
}

TEST(FluidCrossval, SimulatorAgreesWithFluidAcrossGrid) {
  // One TEST on purpose: each gtest TEST runs in its own process under
  // ctest, and the grid costs minutes -- every grid-derived assertion
  // (bands, completed fractions, goodput ratios, monotone convergence)
  // shares this single computation.
  const GridResults& r = grid();

  std::map<std::string, std::vector<double>> gap_series;  // by N, in order
  std::map<std::string, bool> churn_of;
  for (std::size_t i = 0; i < r.keys.size(); ++i) {
    const CellKey& key = r.keys[i];
    const metrics::RunReport& sim = r.sim[i];
    const FluidReport& fluid = r.fluid[i];

    // Completed fractions agree on every cell, including the Reciprocity
    // no-completion one (0 vs <= 0.03 there -- qualitative agreement,
    // quantified).
    EXPECT_NEAR(sim.completed_fraction, fluid.completed_fraction, 0.03)
        << cell_label(key);
    // Clean cells: both goodput ratios ~1. Churn cells: the fluid side is
    // exactly 1 - loss by construction; the simulator's realized ratio
    // (full-transfer waste per loss, plus churn-interrupted transfers)
    // must sit within a couple of points of it.
    EXPECT_NEAR(sim.goodput_ratio, fluid.goodput_ratio, 0.02)
        << cell_label(key);

    if (no_completion_cell(key.algo, key.n)) {
      EXPECT_EQ(sim.completion_summary.count, 0u) << cell_label(key);
      EXPECT_LE(fluid.completed_fraction, 0.03) << cell_label(key);
      continue;
    }
    ASSERT_GT(sim.completion_summary.count, 0u) << cell_label(key);
    ASSERT_GT(fluid.mean_completion_time, 0.0) << cell_label(key);
    ASSERT_TRUE(std::isfinite(fluid.mean_completion_time))
        << cell_label(key);
    const Bands& bands = key.churn ? kChurnBands.at(key.algo)
                                   : kCleanBands.at(key.algo);
    EXPECT_LE(gap_of(sim, fluid), bands.at(key.n))
        << cell_label(key) << ": sim mean " << sim.completion_summary.mean
        << " vs fluid mean " << fluid.mean_completion_time;

    const std::string series =
        to_string(key.algo) + (key.churn ? "/churn" : "/clean");
    gap_series[series].push_back(gap_of(sim, fluid));
    churn_of[series] = key.churn;
  }

  // The mean-field limit argument, asserted: the relative sim->fluid gap
  // must shrink as N grows. Strict on clean cells; churn cells allow a
  // small slack (a single churn realization at one seed adds O(1%) noise
  // to the sim mean, which can locally reorder two already-small gaps).
  for (const auto& [series, g] : gap_series) {
    const double slack = churn_of[series] ? 0.02 : 0.0;
    for (std::size_t j = 1; j < g.size(); ++j) {
      EXPECT_LE(g[j], g[j - 1] + slack)
          << series << ": gap grew from " << g[j - 1] << " to " << g[j];
    }
  }
}

// The point of the backend: the same scenario the event simulator can
// only reach N = 5000 on in reasonable time extrapolates to N = 10^6 in
// well under a second, deterministically, with exact conservation.
TEST(FluidCrossval, MillionPeerExtrapolationGate) {
  sim::SwarmConfig config =
      crossval_config(Algorithm::kBitTorrent, /*churn=*/false, 1000000);
  const auto t0 = std::chrono::steady_clock::now();
  const FluidReport report = exp::run_fluid_scenario(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The CI smoke (tools/check.sh) gates the full CLI round trip at 1 s;
  // the in-process integration must clear the same bar with room. The bar
  // is for optimised code: a build without NDEBUG (Debug, audit) runs the
  // integrator several times slower, so only the timing is waived there.
#ifdef NDEBUG
  EXPECT_LT(wall, 1.0);
#else
  std::printf(
      "[   NOTE   ] wall-clock bound (1.0 s) not checked in a build "
      "without NDEBUG; this run took %.3f s\n",
      wall);
#endif
  EXPECT_NEAR(report.population, 1e6, 1e-6);
  EXPECT_LE(report.conservation_residual, 1e-9 * report.population);
  // At N = 10^6 the fixed seeder is fully diluted: completion rides on
  // reciprocal capacity alone, and everyone still finishes.
  EXPECT_GT(report.completed_fraction, 0.95);
  ASSERT_TRUE(std::isfinite(report.mean_completion_time));
  // Identical reports bit-for-bit on a second run (pure function).
  const FluidReport again = exp::run_fluid_scenario(config);
  EXPECT_EQ(metrics::to_json(report), metrics::to_json(again));
}

}  // namespace
}  // namespace coopnet::core
