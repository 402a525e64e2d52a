// coopnet_run -- the general-purpose scenario runner.
//
// Every SwarmConfig field is a flag; output is a human summary, optionally
// the full JSON report (--json) and a streamed JSON-lines event trace
// (--trace-out FILE). Replicate with --reps to get mean +/- 95% CI per
// metric.
//
//   coopnet_run --algo T-Chain --n 500 --file-mb 64 --free-riders 0.2
//               --attack collusion --large-view --reps 5
//
// Run with --help for the full flag list.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <cmath>

#include <fstream>
#include <sstream>

#include "exp/backend.h"
#include "exp/journal.h"
#include "exp/replication.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "metrics/trace_sink.h"
#include "sim/auditor.h"
#include "sim/checkpoint.h"
#include "sim/swarm.h"
#include "util/atomic_file.h"
#include "util/byteio.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace coopnet;

// Largest --reps value: each replication holds a full report in memory
// until the sweep ends.
constexpr std::size_t kMaxReps = 100000;

constexpr const char* kAbout =
    R"(coopnet_run -- run one cooperative-computing swarm scenario

exit codes: 0 ok; 1 bad value or error; 2 undeclared flag; 3 degraded
(some cells quarantined, the rest completed); 128+signal on SIGINT/SIGTERM
(journal already flushed -- rerun with --resume FILE to finish the sweep).)";

// The flags beyond the scenario, the sweep supervision and --jobs.
std::vector<util::CliFlag> run_flags() {
  return {
      {"run", "audit", "",
       "assert invariant auditing is available (requires a build "
       "configured with -DCOOPNET_AUDIT=ON; such builds audit every event "
       "by default)"},
      {"supervision", "checkpoint", "FILE",
       "single run: write the cadenced --checkpoint-every snapshot to FILE "
       "(atomic replace; removed on clean completion). SIGINT/SIGTERM "
       "leave a final snapshot"},
      {"supervision", "restore", "FILE",
       "single run: resume from the snapshot in FILE and continue "
       "byte-identically (same flags as the original run; --trace-out is "
       "truncated to the snapshot offset and continued)"},
      {"backend", "backend", "B",
       "event|fluid (default event). fluid integrates the mean-field "
       "population ODE system (DESIGN section 12) instead of simulating "
       "discrete events: O(steps) regardless of --n, so --n 1000000 runs in "
       "milliseconds. Cross-validated against the event backend at "
       "N=500..5000; single run only (--reps, supervision, --trace-out, "
       "--audit need events), and a flag for a field it does not model is "
       "an error"},
      {"output", "reps", "R",
       "replications, 1.." + std::to_string(kMaxReps) +
           " (mean +/- 95% CI; default 1)"},
      {"output", "json", "", "print the full RunReport(s) as JSON"},
      {"output", "json-out", "FILE",
       "write the JSON report(s) to FILE atomically (temp file + fsync + "
       "rename; never torn)"},
      {"output", "trace-out", "FILE",
       "stream the event trace to FILE as JSON lines (bounded memory, "
       "flushed per event; single run)"},
  };
}

// SIGINT/SIGTERM flip the flag the cell guards poll; in-flight cells then
// cancel at their next guard tick, the sweep drains (the journal is
// fsync'd per record, so nothing is lost), and main exits 128+signum.
std::atomic<bool> g_cancel{false};
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int signum) {
  g_signal = signum;
  g_cancel.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

sim::SwarmConfig config_from(const util::Cli& cli) {
  const sim::SwarmConfig config = exp::Scenario{}.from_cli(cli);
  if ((cli.has("audit") || cli.has("audit-every")) &&
      !sim::kAuditCompiledIn) {
    throw std::invalid_argument(
        "--audit needs a build configured with -DCOOPNET_AUDIT=ON "
        "(this binary compiled the instrumentation away)");
  }
  return config;
}

// --reps R: replications under the per-cell watchdogs, with quarantine,
// optional journal/resume, and SIGINT/SIGTERM draining to exit 128+signum.
int run_replicated_cli(const util::Cli& cli, const sim::SwarmConfig& config,
                       std::size_t reps, std::size_t jobs,
                       const exp::SweepControl& control) {
  exp::SweepJournal sj = exp::open_sweep_journal(
      control, exp::SweepFingerprint::of(
                   exp::replication_cells(config, reps, config.seed),
                   config.seed));
  if (sj.resume != nullptr) {
    std::fprintf(stderr,
                 "resume: %zu of %zu replications journaled in %s%s\n",
                 sj.resume->size(), reps, control.resume_path.c_str(),
                 sj.resume->torn_lines() > 0 ? " (torn trailing line dropped)"
                                             : "");
  }
  exp::Supervision supervision = control.supervision;
  supervision.cancel = &g_cancel;
  install_signal_handlers();
  const exp::ReplicatedReport out = exp::run_replicated(
      config, reps, config.seed, jobs, supervision, sj.journal.get(),
      sj.resume.get(), control.checkpoint);
  const std::size_t ok = out.sweep.count(exp::CellOutcome::Status::kOk);
  util::Table table(
      ok == reps ? "aggregated over " + std::to_string(reps) + " seeds"
                 : "aggregated over " + std::to_string(ok) + " of " +
                       std::to_string(reps) + " seeds");
  table.set_header({"metric", "mean +/- 95% CI"});
  table.add_row({"completed fraction", out.completed_fraction.to_string()});
  table.add_row({"mean completion (s)", out.mean_completion.to_string()});
  table.add_row({"median bootstrap (s)", out.median_bootstrap.to_string()});
  table.add_row({"settled fairness (u/d)",
                 out.settled_fairness.to_string()});
  table.add_row({"fairness F", out.fairness_F.to_string()});
  table.add_row({"susceptibility", out.susceptibility.to_string()});
  std::printf("%s", table.render().c_str());
  std::printf("sweep wall-clock: %s\n", out.sweep.timing.to_string().c_str());
  if (!out.sweep.complete()) {
    std::printf("degraded coverage: %zu of %zu replications did not "
                "complete\n%s",
                reps - ok, reps, out.sweep.degradation_summary().c_str());
  }
  if (cli.has("json")) {
    std::printf("%s\n", out.sweep.merged_json().c_str());
  }
  if (cli.has("json-out")) {
    util::write_file_atomic(cli.get_string("json-out", ""),
                            out.sweep.merged_json() + "\n");
  }
  if (g_signal != 0) {
    const std::string hint =
        control.journal_path.empty()
            ? "rerun to finish the sweep"
            : "journal flushed -- rerun with --resume " +
                  control.journal_path + " to finish the sweep";
    std::fprintf(stderr, "coopnet_run: interrupted by signal %d; %s\n",
                 static_cast<int>(g_signal), hint.c_str());
    return 128 + static_cast<int>(g_signal);
  }
  return out.sweep.complete() ? 0 : 3;
}

// --backend fluid: one deterministic ODE integration, no events. Prints
// a compact summary and honors --json/--json-out with the FluidReport
// schema (%.17g doubles; golden-pinned under tests/golden/fluid_*.json).
int run_fluid(const util::Cli& cli, const sim::SwarmConfig& config) {
  for (const char* flag : {"reps", "trace-out", "audit", "journal",
                           "resume", "cell-timeout", "event-budget",
                           "checkpoint-every", "checkpoint", "restore"}) {
    if (cli.has(flag)) {
      throw std::invalid_argument(
          std::string("--") + flag +
          " needs the event backend (--backend event)");
    }
  }
  // --attack is a preset over the attack fields, not a schema flag of its
  // own, so the derived list cannot name it.
  std::vector<std::string> unmodelled = exp::fluid_unmodelled_flags();
  unmodelled.emplace_back("attack");
  for (const std::string& flag : unmodelled) {
    if (cli.has(flag)) {
      throw std::invalid_argument(
          "--" + flag +
          " needs the event backend (--backend event); the fluid backend "
          "does not model it");
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const core::FluidReport report = exp::run_fluid_scenario(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "fluid %s: N=%.0f (%.0f compliant), arrived %.1f, completed %.1f "
      "(fraction %.4f)\n",
      core::to_string(report.algorithm).c_str(), report.population,
      report.compliant_population, report.arrived, report.completed,
      report.completed_fraction);
  // --json keeps the event backend's contract: exactly one human line
  // before the JSON, so `tail -n +2` strips it, and nothing
  // wall-clock-dependent lands on stdout.
  if (!cli.has("json")) {
    if (std::isfinite(report.mean_completion_time)) {
      std::printf("mean completion: %.2f s\n", report.mean_completion_time);
    } else {
      std::printf("mean completion: never (no completions by t=%.0f)\n",
                  report.end_time);
    }
    std::printf(
        "steady state at t=%.0f: %.2f leechers, %.2f lingering seeders, "
        "%.2f offline; peak %.1f leechers\n",
        report.end_time, report.leechers_final, report.seeders_final,
        report.offline_final, report.peak_leechers);
    std::printf(
        "goodput ratio %.4f; conservation residual %.3g; %llu RK4 steps "
        "(dt=%.3g) in %.3f s\n",
        report.goodput_ratio, report.conservation_residual,
        static_cast<unsigned long long>(report.steps), report.dt, wall);
  }
  if (cli.has("json")) {
    std::printf("%s\n", metrics::to_json(report).c_str());
  }
  if (cli.has("json-out")) {
    util::write_file_atomic(cli.get_string("json-out", ""),
                            metrics::to_json(report) + "\n");
  }
  return 0;
}

int run(const util::Cli& cli) {
  const auto config = config_from(cli);
  if (exp::backend_from_string(cli.get_string("backend", "event")) ==
      exp::Backend::kFluid) {
    return run_fluid(cli, config);
  }
  const std::size_t reps = cli.get_count("reps", 1, kMaxReps);
  exp::SweepControl control = exp::sweep_control_from_cli(cli);
  if (reps < 2 &&
      (!control.journal_path.empty() || !control.resume_path.empty())) {
    throw std::invalid_argument(
        "--journal/--resume record per-replication cells and need "
        "--reps >= 2 (got --reps " + std::to_string(reps) + ")");
  }

  if (reps > 1 && (cli.has("checkpoint") || cli.has("restore"))) {
    throw std::invalid_argument(
        "--checkpoint/--restore are single-run flags; sweeps checkpoint "
        "with --journal FILE --checkpoint-every S and resume with "
        "--resume FILE");
  }

  if (reps > 1) {
    return run_replicated_cli(cli, config, reps, exp::jobs_from_cli(cli),
                              control);
  }

  // Single run: one exp::CellRun, optionally with a streaming JSONL sink
  // chained in front of its collector, and optionally checkpointed
  // (--checkpoint) or restored (--restore).
  const std::string ckpt_file = cli.get_string("checkpoint", "");
  if (cli.has("checkpoint") && ckpt_file.empty()) {
    throw std::invalid_argument(
        "--checkpoint needs a file path to write the snapshot to");
  }
  if (!ckpt_file.empty() && !control.checkpoint.active()) {
    throw std::invalid_argument(
        "--checkpoint FILE needs a cadence: add --checkpoint-every S "
        "(simulated seconds)");
  }
  const std::string restore_file = cli.get_string("restore", "");
  if (cli.has("restore") && restore_file.empty()) {
    throw std::invalid_argument(
        "--restore needs the snapshot file of the interrupted run");
  }
  if (control.supervision.any() || !ckpt_file.empty() ||
      !restore_file.empty()) {
    // A checkpointed run always polls the cancel flag: SIGINT/SIGTERM
    // then stop it at a guard tick and it leaves a final snapshot.
    control.supervision.cancel = &g_cancel;
    install_signal_handlers();
  }

  std::unique_ptr<exp::CellRun> cell;
  std::optional<std::uint64_t> trace_offset;
  if (restore_file.empty()) {
    cell = std::make_unique<exp::CellRun>(config, control.supervision);
  } else {
    std::ifstream in(restore_file, std::ios::binary);
    if (!in) {
      throw std::invalid_argument("--restore: cannot read " + restore_file);
    }
    std::ostringstream os;
    os << in.rdbuf();
    // decode_snapshot and the restoring CellRun throw
    // sim::CheckpointError (naming the failing section or offset) on a
    // truncated, bit-rotted, or config-mismatched snapshot; a single run
    // reports it instead of starting over.
    const std::vector<sim::SnapshotSection> sections =
        sim::decode_snapshot(config, os.str());
    for (const sim::SnapshotSection& s : sections) {
      if (s.id != sim::kSectionTrace) continue;
      util::ByteSource src(s.payload, "trace section");
      trace_offset = src.get_u64();
      src.expect_exhausted();
    }
    cell = std::make_unique<exp::CellRun>(config, control.supervision,
                                          sections);
  }

  std::unique_ptr<metrics::TraceSink> sink;
  if (cli.has("trace-out")) {
    const std::string trace_path = cli.get_string("trace-out", "");
    if (restore_file.empty()) {
      sink = std::make_unique<metrics::TraceSink>(trace_path);
    } else if (trace_offset) {
      sink = std::make_unique<metrics::TraceSink>(trace_path, true,
                                                  *trace_offset);
    } else {
      throw std::invalid_argument(
          "--restore: the snapshot has no trace section (the original "
          "run did not stream --trace-out); drop --trace-out or restart "
          "from scratch");
    }
    sink->chain(&cell->metrics());
    cell->swarm().set_observer(sink.get());
  } else if (trace_offset) {
    std::fprintf(stderr,
                 "coopnet_run: warning: the snapshot recorded a streamed "
                 "trace but --trace-out is absent; the trace file will "
                 "not be continued\n");
  }

  cell->run(ckpt_file.empty() ? 0.0 : control.checkpoint.every, [&] {
    std::vector<sim::SnapshotSection> snap = cell->save();
    if (sink != nullptr) {
      util::ByteSink tsink;
      tsink.put_u64(sink->bytes_written());
      snap.push_back({sim::kSectionTrace, tsink.take()});
    }
    util::write_file_atomic(ckpt_file, sim::encode_snapshot(config, snap));
  });
  const exp::CellOutcome::Status status = cell->guard().status();
  if (!ckpt_file.empty() && status == exp::CellOutcome::Status::kSkipped) {
    std::fprintf(stderr,
                 "coopnet_run: snapshot written to %s; rerun with "
                 "--restore %s to continue\n",
                 ckpt_file.c_str(), ckpt_file.c_str());
  }
  const auto report = metrics::build_report(cell->swarm(), cell->metrics());
  const bool cancelled = status != exp::CellOutcome::Status::kOk;
  if (!ckpt_file.empty() && !cancelled) {
    std::remove(ckpt_file.c_str());  // clean completion: prune the snapshot
  }
  if (cancelled) {
    std::printf("run cancelled: %s (metrics below cover the partial run)\n",
                cell->guard().reason().c_str());
  }
  std::printf("%s\n", metrics::summarize_report(report).c_str());
  if (const auto* auditor = cell->swarm().auditor()) {
    std::printf("audit: %llu events recorded, %llu invariant checks, "
                "0 violations\n",
                static_cast<unsigned long long>(auditor->events_recorded()),
                static_cast<unsigned long long>(auditor->checks_run()));
  }
  if (cli.has("json")) {
    std::printf("%s\n", metrics::to_json(report).c_str());
  }
  if (cli.has("json-out")) {
    util::write_file_atomic(cli.get_string("json-out", ""),
                            metrics::to_json(report) + "\n");
  }
  if (g_signal != 0) {
    std::fprintf(stderr, "coopnet_run: interrupted by signal %d\n",
                 static_cast<int>(g_signal));
    return 128 + static_cast<int>(g_signal);
  }
  return cancelled ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.declare(exp::Scenario{}.flags());
  cli.declare(run_flags());
  cli.declare(exp::sweep_control_flags());
  cli.declare(exp::jobs_flags());
  return cli.run(kAbout, run);
}
