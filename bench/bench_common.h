// Shared scaffolding for the per-figure bench binaries: sweep flags, fleet
// roles, and report-row rendering. The scenario itself comes from
// exp::Scenario.
#pragma once

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fluid_model.h"
#include "exp/journal.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "fleet/coordinator.h"
#include "fleet/options.h"
#include "fleet/worker.h"
#include "metrics/json.h"
#include "util/ascii_plot.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/table.h"

namespace coopnet::bench {

/// Declares the flags of a supervised figure sweep: supervision, --jobs,
/// the fleet roles and the output dumps maybe_dump_csv reads.
inline void declare_sweep_flags(util::Cli& cli) {
  cli.declare(exp::sweep_control_flags());
  cli.declare(exp::jobs_flags());
  cli.declare(fleet::fleet_flags());
  cli.declare({{"output", "json", "",
                "print the merged per-cell JSON array (null for failed "
                "cells)"},
               {"output", "json-out", "FILE",
                "write the same JSON to FILE atomically (temp file + "
                "rename)"},
               {"output", "csv", "",
                "print the long-form series of the cells run in this process "
                "as CSV"}});
}

/// --help text of a supervised sweep bench: `what`, then its exit codes.
inline std::string sweep_about(const std::string& what) {
  return what +
         "\n\nexit codes: 0 ok; 1 bad value or error; 2 undeclared flag; 3 "
         "degraded sweep\n(some cells quarantined, the rest completed).";
}

/// Prints the per-sweep wall-clock/throughput line under a table, so the
/// --jobs speedup is visible in the artifact itself.
inline void print_sweep_timing(const exp::SweepTiming& timing) {
  std::printf("sweep wall-clock: %s\n", timing.to_string().c_str());
}

/// Renders a (time, value) series per algorithm as an ASCII chart.
inline void print_series_chart(
    const std::string& title,
    const std::vector<std::pair<std::string, util::TimeSeries>>& series,
    const std::string& x_label, const std::string& y_label) {
  std::vector<util::PlotSeries> plots;
  for (const auto& [name, ts] : series) {
    if (ts.empty()) continue;
    plots.push_back({name, ts.resample(64)});
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("%s", util::line_chart(plots, 72, 18, x_label, y_label).c_str());
}

/// Renders per-algorithm CDFs (completion / bootstrap) as an ASCII chart.
inline void print_cdf_chart(
    const std::string& title,
    const std::vector<std::pair<std::string, std::vector<util::CdfPoint>>>&
        cdfs,
    const std::string& x_label) {
  std::vector<util::PlotSeries> plots;
  for (const auto& [name, cdf] : cdfs) {
    if (cdf.empty()) continue;
    util::PlotSeries s;
    s.name = name;
    for (std::size_t i = 0; i < cdf.size();
         i += std::max<std::size_t>(1, cdf.size() / 64)) {
      s.points.push_back({cdf[i].x, cdf[i].fraction});
    }
    s.points.push_back({cdf.back().x, cdf.back().fraction});
    plots.push_back(std::move(s));
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("%s",
              util::line_chart(plots, 72, 18, x_label, "fraction").c_str());
}

/// The Figure 4/5/6 cell schedule: one cell per algorithm over `base`
/// (free-rider population expanded when configured). Deterministic in
/// `base`, so a fleet coordinator and its workers build identical
/// schedules from the same flags.
inline std::vector<sim::SwarmConfig> figure_suite_cells(
    const sim::SwarmConfig& base) {
  std::vector<sim::SwarmConfig> cells;
  for (core::Algorithm algo : core::kAllAlgorithms) {
    sim::SwarmConfig config = base;
    config.algorithm = algo;
    if (config.free_rider_fraction > 0.0) {
      const bool large = config.attack.large_view;
      config = exp::with_freeriders(config, config.free_rider_fraction,
                                    large);
    }
    cells.push_back(config);
  }
  return cells;
}

/// Opens the journal/resume pair for a supervised sweep and reports the
/// resume coverage on stderr.
inline exp::SweepJournal open_journal_from_cli(
    const exp::SweepControl& control,
    const std::vector<sim::SwarmConfig>& cells, std::uint64_t base_seed) {
  exp::SweepJournal sj = exp::open_sweep_journal(
      control, exp::SweepFingerprint::of(cells, base_seed));
  if (sj.resume != nullptr) {
    std::fprintf(stderr, "  resume: %zu of %zu cells journaled in %s%s\n",
                 sj.resume->size(), cells.size(),
                 control.resume_path.c_str(),
                 sj.resume->torn_lines() > 0 ? " (torn trailing line dropped)"
                                             : "");
  }
  return sj;
}

/// The fleet worker's preemption flag: SIGTERM/SIGINT set it, the
/// per-cell guard polls it, and the worker parts gracefully (final
/// snapshot + BYE) instead of dying with the lease held.
inline std::atomic<bool>& fleet_worker_cancel_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline void fleet_worker_on_signal(int) {
  fleet_worker_cancel_flag().store(true, std::memory_order_relaxed);
}

/// Runs this process as a fleet worker over the given deterministic cell
/// schedule and returns the process exit code. Workers render no tables:
/// they stream journal record lines to the coordinator, which owns the
/// merged artifacts. `checkpoint_every` > 0 (the worker's
/// --checkpoint-every) ships mid-cell snapshots to the coordinator and
/// resumes cells from coordinator-shipped snapshots (DESIGN §13).
inline int run_fleet_worker(const std::vector<sim::SwarmConfig>& cells,
                            std::uint64_t base_seed,
                            const fleet::FleetControl& fleet,
                            exp::Supervision supervision,
                            double checkpoint_every = 0.0) {
  supervision.cancel = &fleet_worker_cancel_flag();
  std::signal(SIGTERM, fleet_worker_on_signal);
  std::signal(SIGINT, fleet_worker_on_signal);
  std::fprintf(stderr,
               "  fleet worker '%s' connecting to %s:%u (%zu cells in "
               "schedule)...\n",
               fleet.worker_name.c_str(), fleet.host.c_str(),
               static_cast<unsigned>(fleet.port), cells.size());
  fleet::FleetWorker worker(cells, base_seed, fleet, supervision,
                            checkpoint_every);
  const fleet::WorkerStats stats = worker.run();
  std::printf(
      "fleet worker '%s': ran %zu cell(s) over %zu lease(s), "
      "%zu reconnect(s)\n",
      fleet.worker_name.c_str(), stats.cells_run, stats.leases_received,
      stats.reconnects);
  if (stats.cells_resumed > 0) {
    // The kill/restore CI gate parses this line: replayed events must be
    // a small fraction of the events the snapshots carried in.
    std::printf(
        "fleet worker '%s': resumed %zu cell(s) from snapshots "
        "(replayed %llu events on top of %llu restored)\n",
        fleet.worker_name.c_str(), stats.cells_resumed,
        static_cast<unsigned long long>(stats.events_replayed),
        static_cast<unsigned long long>(stats.events_restored));
  }
  if (stats.preempted) {
    std::fprintf(stderr,
                 "  fleet worker '%s' preempted (SIGTERM); final snapshot "
                 "shipped, unfinished cells re-lease elsewhere\n",
                 fleet.worker_name.c_str());
  }
  return 0;
}

/// Serves a sweep as the fleet coordinator over an already-opened
/// journal (the coordinator's crash-recovery log) and returns the merged
/// result -- byte-identical artifacts to a local run_cells sweep of the
/// same cells.
inline exp::SweepResult serve_fleet_coordinator(
    const std::vector<sim::SwarmConfig>& cells, std::uint64_t base_seed,
    const fleet::FleetControl& fleet, exp::SweepJournal& sj) {
  if (sj.journal == nullptr) {
    throw std::invalid_argument(
        "--fleet-listen requires --journal FILE: the journal is the "
        "coordinator's crash-recovery log and the source of the merged "
        "artifacts (restart with --resume FILE to pick a partial fleet "
        "sweep back up)");
  }
  fleet::FleetCoordinator coordinator(cells, base_seed, fleet,
                                      sj.journal.get(), sj.resume.get());
  std::fprintf(stderr,
               "  fleet coordinator listening on %s:%u (%zu cells, "
               "%zu already journaled)...\n",
               fleet.host.c_str(), static_cast<unsigned>(coordinator.port()),
               cells.size(), sj.resume ? sj.resume->size() : 0);
  const exp::SweepResult sweep = coordinator.serve();
  const fleet::CoordinatorStats& fs = coordinator.stats();
  std::fprintf(stderr,
               "  fleet: %zu worker(s) joined, %zu lost, %zu lease(s) "
               "granted, %zu expired, %llu cell reassignment(s), "
               "%zu abandoned, %zu duplicate result(s)\n",
               fs.workers_joined, fs.workers_lost, fs.leases_granted,
               fs.leases_expired,
               static_cast<unsigned long long>(fs.cells_reassigned),
               fs.cells_abandoned, fs.duplicate_results);
  if (fs.snapshots_received > 0 || fs.snapshots_shipped > 0) {
    std::fprintf(stderr,
                 "  fleet: %zu snapshot(s) received, %zu handed to new "
                 "lessees\n",
                 fs.snapshots_received, fs.snapshots_shipped);
  }
  return sweep;
}

/// Series charts and CSV need the full report; journal-resumed cells only
/// carry scalars, so they cover the ok cells that ran in this process.
inline std::vector<const metrics::RunReport*> fresh_reports(
    const exp::SweepResult& sweep) {
  std::vector<const metrics::RunReport*> fresh;
  for (const auto& o : sweep.outcomes) {
    if (o.ok() && !o.from_journal) fresh.push_back(&o.report);
  }
  return fresh;
}

/// Prints the quarantine report for a degraded sweep (no-op when every
/// cell is ok).
inline void print_degraded_coverage(const exp::SweepResult& sweep) {
  if (sweep.complete()) return;
  std::printf("\ndegraded coverage: %zu of %zu cells did not complete\n%s",
              sweep.outcomes.size() -
                  sweep.count(exp::CellOutcome::Status::kOk),
              sweep.outcomes.size(), sweep.degradation_summary().c_str());
}

/// Runs all six algorithms over a scenario and prints the Figure 4/5/6
/// artifact set: the per-algorithm summary table with each cell's status,
/// susceptibility (when free-riders are present), the completion-time
/// CDFs (efficiency), the fairness-vs-time series, and the bootstrap CDFs.
/// Each algorithm runs under the per-cell watchdogs, failures are
/// quarantined into their table row instead of aborting, and outcomes are
/// journaled/resumed per `control` (or served to fleet workers when
/// `fleet` is a coordinator). Charts cover the cells that ran to
/// completion in this process (journal-resumed cells carry scalar metrics
/// only).
inline exp::SweepResult run_figure_suite(const sim::SwarmConfig& base,
                                         bool with_susceptibility,
                                         std::size_t jobs,
                                         const exp::SweepControl& control,
                                         const fleet::FleetControl& fleet) {
  const std::vector<sim::SwarmConfig> cells = figure_suite_cells(base);
  exp::SweepJournal sj =
      open_journal_from_cli(control, cells, base.seed);
  std::fprintf(stderr, "  running %zu algorithms (jobs=%zu)...\n",
               cells.size(), jobs);
  const exp::SweepResult sweep =
      fleet.coordinator()
          ? serve_fleet_coordinator(cells, base.seed, fleet, sj)
          : exp::run_cells(cells, jobs, control.supervision,
                           sj.journal.get(), sj.resume.get(),
                           control.checkpoint);

  util::Table table("Per-algorithm summary");
  table.set_header({"Algorithm", "status", "finished", "mean compl. (s)",
                    "median compl. (s)", "boot median (s)",
                    "settled fairness (u/d)", "fairness F",
                    "susceptibility"});
  for (const auto& o : sweep.outcomes) {
    if (!o.has_report) {
      table.add_row({o.algorithm, to_string(o.status), "-", "-", "-", "-",
                     "-", "-", "-"});
      continue;
    }
    const metrics::RunReport& r = o.report;
    table.add_row(
        {o.algorithm,
         o.from_journal ? "ok (journal)" : to_string(o.status),
         std::to_string(r.completion_times.size()) + "/" +
             std::to_string(r.compliant_population),
         r.completion_times.empty()
             ? "-"
             : util::Table::num(r.completion_summary.mean, 5),
         r.completion_times.empty()
             ? "-"
             : util::Table::num(r.completion_summary.median, 5),
         r.bootstrap_times.empty()
             ? "-"
             : util::Table::num(r.bootstrap_summary.median, 4),
         r.settled_fairness < 0.0
             ? "-"
             : util::Table::num(r.settled_fairness, 4),
         r.final_fairness_F < 0.0
             ? "-"
             : util::Table::num(r.final_fairness_F, 4),
         with_susceptibility ? util::Table::pct(r.susceptibility) : "-"});
  }
  std::printf("%s", table.render().c_str());
  print_sweep_timing(sweep.timing);
  print_degraded_coverage(sweep);

  if (with_susceptibility) {
    std::vector<std::pair<std::string, double>> bars;
    for (const auto& o : sweep.outcomes) {
      if (o.has_report) bars.push_back({o.algorithm, o.report.susceptibility});
    }
    std::printf("\n(a) Susceptibility: fraction of users' upload bandwidth "
                "captured by free-riders\n%s",
                util::bar_chart(bars).c_str());
  }

  const std::vector<const metrics::RunReport*> fresh = fresh_reports(sweep);
  if (fresh.size() < sweep.outcomes.size()) {
    std::printf("\n(charts cover the %zu cells run in this process; "
                "resumed/failed cells are tabulated above)\n",
                fresh.size());
  }
  if (!fresh.empty()) {
    std::vector<std::pair<std::string, std::vector<util::CdfPoint>>> cdfs;
    for (const auto* r : fresh) {
      cdfs.push_back({core::to_string(r->algorithm),
                      metrics::completion_cdf(*r)});
    }
    print_cdf_chart("(b) Efficiency: download completion-time CDF "
                    "(reciprocity flat at 0 -- nobody finishes)",
                    cdfs, "seconds since arrival");

    std::vector<std::pair<std::string, util::TimeSeries>> fairness;
    for (const auto* r : fresh) {
      fairness.push_back({core::to_string(r->algorithm), r->fairness_series});
    }
    print_series_chart("(c) Fairness: mean u/d over compliant peers vs time",
                       fairness, "seconds", "mean u/d");

    std::vector<std::pair<std::string, std::vector<util::CdfPoint>>> boots;
    for (const auto* r : fresh) {
      boots.push_back({core::to_string(r->algorithm),
                       metrics::bootstrap_cdf(*r)});
    }
    print_cdf_chart("(d) Bootstrapping: time-to-first-piece CDF", boots,
                    "seconds since arrival");
  }
  return sweep;
}

/// Optional machine-readable dumps: --json prints the merged per-cell
/// array (null for non-ok cells; byte-identical to metrics::to_json of the
/// reports when all cells are ok), --json-out FILE writes the same bytes
/// crash-safely (temp file + atomic rename), and --csv prints long-form
/// series of the cells that ran in this process.
inline void maybe_dump_csv(const util::Cli& cli,
                           const exp::SweepResult& sweep) {
  if (cli.has("json")) {
    std::printf("\n--- JSON ---\n%s\n", sweep.merged_json().c_str());
  }
  if (cli.has("json-out")) {
    util::write_file_atomic(cli.get_string("json-out", ""),
                            sweep.merged_json() + "\n");
  }
  if (!cli.has("csv")) return;
  const std::vector<const metrics::RunReport*> fresh = fresh_reports(sweep);
  std::printf("\n--- CSV: fairness series ---\nalgorithm,time,value\n");
  for (const auto* r : fresh) {
    for (const auto& p : r->fairness_series.points()) {
      std::printf("%s,%g,%g\n", core::to_string(r->algorithm).c_str(),
                  p.time, p.value);
    }
  }
  std::printf("\n--- CSV: completion times ---\nalgorithm,seconds\n");
  for (const auto* r : fresh) {
    for (double t : r->completion_times) {
      std::printf("%s,%g\n", core::to_string(r->algorithm).c_str(), t);
    }
  }
  std::printf("\n--- CSV: bootstrap times ---\nalgorithm,seconds\n");
  for (const auto* r : fresh) {
    for (double t : r->bootstrap_times) {
      std::printf("%s,%g\n", core::to_string(r->algorithm).c_str(), t);
    }
  }
}

/// Fluid-model predictions for the same scenario: per-algorithm mean
/// finish times from the mean-field Table I drain, printed next to the
/// simulated means (the analytic counterpart of Figure 4a).
inline void print_fluid_overlay(
    const sim::SwarmConfig& base,
    const std::vector<metrics::RunReport>& reports) {
  // Convert the configured capacity mix into fluid classes.
  std::vector<core::FluidClass> classes;
  for (const auto& c : base.capacities.classes()) {
    classes.push_back(
        {c.rate, c.fraction * static_cast<double>(base.n_peers)});
  }
  core::FluidParams params;
  params.file_bytes = static_cast<double>(base.file_bytes);
  params.seeder_rate =
      base.seeder_capacity * static_cast<double>(base.seeder_count);
  params.model.alpha_bt = 0.2;
  params.model.alpha_r = base.alpha_r;
  params.dt = 1.0;
  params.max_time = base.max_time;

  util::Table table("Fluid-model check: mean completion predicted by the "
                    "Table I mean-field drain vs simulated");
  table.set_header({"Algorithm", "fluid mean (s)", "simulated mean (s)",
                    "ratio sim/fluid"});
  for (const auto& r : reports) {
    const auto fluid =
        core::fluid_completion(r.algorithm, classes, params);
    const bool fluid_finite = std::isfinite(fluid.mean_finish_time);
    const bool sim_finished = !r.completion_times.empty();
    table.add_row(
        {core::to_string(r.algorithm),
         fluid_finite ? util::Table::num(fluid.mean_finish_time, 5)
                      : "never",
         sim_finished ? util::Table::num(r.completion_summary.mean, 5)
                      : "never",
         (fluid_finite && sim_finished)
             ? util::Table::num(
                   r.completion_summary.mean / fluid.mean_finish_time, 3)
             : "-"});
  }
  std::printf("\n%s", table.render().c_str());
}

}  // namespace coopnet::bench
