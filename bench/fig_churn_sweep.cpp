// Degradation sweep: every incentive mechanism under increasing fault and
// churn pressure (robustness companion to Figures 4-6, which assume an
// ideal transport).
//
// For each fault level the full algorithm set runs over the same base
// scenario (same seed => same capacities/topology), and the table reports
// how completion, efficiency, and goodput degrade relative to the
// fault-free run.
//
//   ./fig_churn_sweep [--scale small|mid|paper] [--n N] [--seed S]
//                     [--jobs J] [--json] [--json-out F] [--audit]
//                     [--journal F] [--resume F] ...   (--help: all flags)
//
// A failing cell is quarantined into its table row instead of aborting
// the whole matrix, and exit code 3 flags the degraded coverage. The
// sweep flags (see exp/supervise.h) add watchdogs, journal completed
// cells crash-safely, and make an interrupted sweep resumable.
//
// The fleet flags (see fleet/options.h) distribute the same cell matrix
// across machines: one process runs --fleet-listen (the coordinator;
// requires --journal) and any number run --fleet-connect with the SAME
// sweep flags. Artifacts are byte-identical to a local --jobs N run,
// and a SIGKILLed worker only costs wall-clock time.
//
// --audit runs the whole fault x mechanism matrix under the swarm
// invariant auditor (requires a -DCOOPNET_AUDIT=ON build). A violation
// fails its cell with the auditor's diagnostic, and the sweep exits 3.
// This is the CI audit smoke.
#include "bench_common.h"
#include "sim/auditor.h"
#include "sim/faults.h"

namespace {

struct FaultLevel {
  std::string name;
  coopnet::sim::FaultConfig faults;
};

std::vector<FaultLevel> fault_levels() {
  using namespace coopnet::sim;
  std::vector<FaultLevel> levels;
  levels.push_back({"none", FaultConfig{}});
  levels.push_back({"loss 5%", lossy_faults(0.05)});
  levels.push_back({"loss 20%", lossy_faults(0.20)});
  {
    FaultLevel l{"stalls 10%", FaultConfig{}};
    l.faults.transfer_stall_rate = 0.10;
    l.faults.stall_timeout = 30.0;
    levels.push_back(l);
  }
  levels.push_back({"moderate churn", moderate_churn()});
  levels.push_back({"heavy churn", heavy_churn()});
  {
    // Everything at once: the "hostile weekend" scenario.
    FaultLevel l{"loss 10% + heavy churn + seeder blinks", heavy_churn()};
    l.faults.transfer_loss_rate = 0.10;
    l.faults.seeder_uptime = 120.0;
    l.faults.seeder_downtime = 30.0;
    levels.push_back(l);
  }
  return levels;
}

int sweep_and_report(const coopnet::util::Cli& cli,
                     const std::vector<FaultLevel>& levels,
                     const std::vector<coopnet::sim::SwarmConfig>& cells,
                     std::size_t jobs, std::uint64_t base_seed,
                     const coopnet::exp::SweepControl& control,
                     const coopnet::fleet::FleetControl& fleet) {
  using namespace coopnet;
  exp::SweepJournal sj =
      bench::open_journal_from_cli(control, cells, base_seed);
  // A fleet coordinator distributes the same cells to TCP workers and
  // merges their journal records; artifacts are byte-identical either way.
  const exp::SweepResult sweep =
      fleet.coordinator()
          ? bench::serve_fleet_coordinator(cells, base_seed, fleet, sj)
          : exp::run_cells(cells, jobs, control.supervision,
                           sj.journal.get(), sj.resume.get(),
                           control.checkpoint);

  util::Table table(
      "Degradation under faults & churn (per fault level x mechanism)");
  table.set_header({"Fault level", "Algorithm", "status", "finished",
                    "mean compl. (s)", "vs clean", "retries", "abandoned",
                    "departed(rejoined)", "goodput"});
  std::vector<double> clean_mean(core::kAllAlgorithms.size(), -1.0);
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const auto& level = levels[li];
    for (std::size_t ai = 0; ai < core::kAllAlgorithms.size(); ++ai) {
      const core::Algorithm algo = core::kAllAlgorithms[ai];
      const exp::CellOutcome& o =
          sweep.outcomes[li * core::kAllAlgorithms.size() + ai];
      const std::string status =
          o.from_journal ? "ok (journal)" : to_string(o.status);
      if (!o.has_report) {
        table.add_row({level.name, core::to_string(algo), status, "-", "-",
                       "-", "-", "-", "-", "-"});
        continue;
      }
      const metrics::RunReport& r = o.report;
      const bool finished_any = !r.completion_times.empty();
      const double mean = finished_any ? r.completion_summary.mean : -1.0;
      if (level.name == "none") clean_mean[ai] = mean;
      std::string vs_clean = "-";
      if (mean > 0.0 && clean_mean[ai] > 0.0) {
        vs_clean = util::Table::num(mean / clean_mean[ai], 3) + "x";
      }
      // Journal stubs restore the headline metrics but not the fault
      // counters or goodput, so resumed rows show "-" there.
      const auto& f = r.faults;
      table.add_row(
          {level.name, core::to_string(algo), status,
           std::to_string(r.completion_times.size()) + "/" +
               std::to_string(r.compliant_population),
           finished_any ? util::Table::num(mean, 5) : "never", vs_clean,
           o.from_journal ? "-" : std::to_string(f.retries_scheduled),
           o.from_journal ? "-" : std::to_string(f.transfers_abandoned),
           o.from_journal ? "-"
                          : std::to_string(f.churn_departures) + "(" +
                                std::to_string(f.churn_rejoins) + ")",
           o.from_journal ? "-" : util::Table::pct(r.goodput_ratio)});
    }
  }
  std::printf("%s", table.render().c_str());
  bench::print_sweep_timing(sweep.timing);
  bench::print_degraded_coverage(sweep);

  util::Table summary("Completion rate by fault level (fraction of "
                      "compliant peers that finish)");
  std::vector<std::string> header{"Algorithm"};
  for (const auto& level : levels) header.push_back(level.name);
  summary.set_header(header);
  for (std::size_t ai = 0; ai < core::kAllAlgorithms.size(); ++ai) {
    std::vector<std::string> row{core::to_string(core::kAllAlgorithms[ai])};
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const auto& o = sweep.outcomes[li * core::kAllAlgorithms.size() + ai];
      row.push_back(o.has_report
                        ? util::Table::pct(o.report.completed_fraction)
                        : "-");
    }
    summary.add_row(row);
  }
  std::printf("\n%s", summary.render().c_str());

  if (cli.has("audit")) {
    std::printf("\naudit: %zu of %zu swarms ran under the invariant "
                "auditor with zero violations\n",
                sweep.count(exp::CellOutcome::Status::kOk), cells.size());
  }

  bench::maybe_dump_csv(cli, sweep);
  return sweep.complete() ? 0 : 3;
}

// Small scale by default: the sweep runs |levels| x |algorithms| swarms,
// each cell setting its own mechanism and fault level.
const coopnet::exp::Scenario kScenario{"small", nullptr,
                                       {"mechanism", "faults"}};

int run_sweep(const coopnet::util::Cli& cli) {
  using namespace coopnet;
  if (cli.has("audit") && !sim::kAuditCompiledIn) {
    throw std::invalid_argument(
        "--audit needs a build configured with -DCOOPNET_AUDIT=ON");
  }
  const sim::SwarmConfig base = kScenario.from_cli(cli);

  const auto levels = fault_levels();
  const std::size_t jobs = exp::jobs_from_cli(cli);
  const exp::SweepControl control = exp::sweep_control_from_cli(cli);

  // The whole sweep is one batch of independent (fault level, algorithm)
  // cells; slot order reproduces the sequential row order exactly.
  std::vector<sim::SwarmConfig> cells;
  for (const auto& level : levels) {
    for (core::Algorithm algo : core::kAllAlgorithms) {
      sim::SwarmConfig config = base;
      config.algorithm = algo;
      config.faults = level.faults;
      cells.push_back(config);
    }
  }
  const fleet::FleetControl fleet = fleet::fleet_control_from_cli(cli);
  if (fleet.worker()) {
    // Workers run cells for the coordinator and render nothing locally.
    return bench::run_fleet_worker(cells, base.seed, fleet,
                                   control.supervision,
                                   control.checkpoint.every);
  }
  std::fprintf(stderr,
               "  running %zu fault levels x %zu algorithms = %zu swarms "
               "(jobs=%zu)...\n",
               levels.size(), core::kAllAlgorithms.size(), cells.size(),
               jobs);
  return sweep_and_report(cli, levels, cells, jobs, base.seed, control,
                          fleet);
}

}  // namespace

int main(int argc, char** argv) {
  coopnet::util::Cli cli(argc, argv);
  cli.declare(kScenario.flags());
  cli.declare({{"run", "audit", "",
                "run every cell under the invariant auditor (requires a "
                "-DCOOPNET_AUDIT=ON build)"}});
  coopnet::bench::declare_sweep_flags(cli);
  return cli.run(coopnet::bench::sweep_about(
                     "fig_churn_sweep -- every mechanism under increasing "
                     "fault and churn pressure"),
                 run_sweep);
}
