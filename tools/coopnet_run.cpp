// coopnet_run -- the general-purpose scenario runner.
//
// Every SwarmConfig knob is a flag; output is a human summary, optionally
// the full JSON report (--json) or a per-transfer trace CSV (--trace).
// Replicate with --reps to get mean +/- 95% CI per metric.
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
#include <string>

#include <cmath>

#include <fstream>
#include <sstream>

#include "exp/backend.h"
#include "exp/journal.h"
#include "exp/replication.h"
#include "exp/runner.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "metrics/trace_log.h"
#include "metrics/trace_sink.h"
#include "sim/auditor.h"
#include "sim/checkpoint.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/atomic_file.h"
#include "util/byteio.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace coopnet;

constexpr const char* kHelp = R"(coopnet_run -- run one cooperative-computing swarm scenario

population:
  --algo NAME          Reciprocity|T-Chain|BitTorrent|FairTorrent|
                       Reputation|Altruism|PropShare (default BitTorrent)
  --n N                leechers (default 300)
  --seeders N          seeder count (default 1)
  --free-riders F      fraction of free-riders (default 0)
  --strategic F        fraction of BitTyrant-style clients (default 0)
file / topology:
  --file-mb MB         file size (default 32)
  --piece-kb KB        piece size (default 256)
  --degree D           neighbor-set size (default 30)
  --pieces POLICY      rarest|random|sequential (default rarest)
arrivals / lifetime:
  --arrivals MODE      flash|poisson|staggered (default flash)
  --arrival-rate R     peers/second for poisson/staggered (default 10)
  --linger S           post-completion seeding time (default 0)
  --max-time S         simulation cap (default 4000)
attacks (free-riders only):
  --attack NAME        collusion|whitewash|sybil|targeted (default: none)
  --large-view         free-riders use the large-view exploit
algorithm knobs:
  --alpha-r F          reputation altruism share (default 0.1)
  --reputation MODE    ledger|eigentrust (default ledger)
  --tchain-backlog N   reciprocation admission cap, 0 = unlimited
faults / observability:
  --loss F             transfer loss probability (default 0)
  --stall F            transfer stall probability (default 0)
  --churn LEVEL        none|moderate|heavy leecher churn (default none)
  --audit              assert invariant auditing is available (requires a
                       build configured with -DCOOPNET_AUDIT=ON; such
                       builds audit every event by default)
  --audit-every N      audit cadence in swarm events (default 1)
  --trace-out FILE     stream the event trace to FILE as JSON lines
                       (bounded memory, flushed per event; single run)
supervision / crash-safety (DESIGN.md "Crash-safety & resumability"):
  --cell-timeout S     wall-clock watchdog per run; a run exceeding it is
                       cancelled deterministically and quarantined
  --event-budget N     cancel a run after exactly N engine events
  --journal FILE       append each completed replication to FILE as an
                       fsync'd JSON line (requires --reps >= 2)
  --resume FILE        skip replications already journaled in FILE and
                       merge their results bit-identically (implies
                       --journal FILE; requires --reps >= 2)
  --checkpoint-every S snapshot each run's full state every S SIMULATED
                       seconds (byte-identical results either way). With
                       --journal, snapshots live at FILE.ckpt.<cell> and
                       --resume restores mid-cell; single runs pair it
                       with --checkpoint FILE
  --checkpoint FILE    single run: write the cadenced snapshot to FILE
                       (atomic replace; removed on clean completion).
                       SIGINT/SIGTERM leave a final snapshot
  --restore FILE       single run: resume from the snapshot in FILE and
                       continue byte-identically (same flags as the
                       original run; --trace-out is truncated to the
                       snapshot offset and continued)
backend:
  --backend B          event|fluid (default event). fluid integrates the
                       mean-field population ODE system (DESIGN §12)
                       instead of simulating discrete events: O(steps)
                       regardless of --n, so --n 1000000 runs in
                       milliseconds. Cross-validated against the event
                       backend at N=500..5000; single run only (--reps,
                       supervision, --trace, --audit need events)
output:
  --reps R             replications (mean +/- 95% CI; default 1)
  --jobs J             replications run concurrently (default: all
                       hardware threads; 1 = sequential; results are
                       bit-identical for every J)
  --seed S             base seed (default 7)
  --json               print the full RunReport(s) as JSON
  --json-out FILE      write the JSON report(s) to FILE atomically
                       (temp file + fsync + rename; never torn)
  --trace              print the transfer trace CSV (single run only)

exit codes: 0 ok; 1 error; 3 degraded (some cells quarantined, the rest
completed); 128+signal on SIGINT/SIGTERM (journal already flushed --
rerun with --resume FILE to finish the sweep).
)";

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
  sim::SwarmConfig config;
  config.algorithm =
      core::algorithm_from_string(cli.get_string("algo", "BitTorrent"));
  // Counts size allocations: validated (zero/negative/overflow rejected
  // with the legal range) instead of reaching the constructor as a
  // UB-sized vector length.
  config.n_peers = cli.get_count("n", 300, sim::kMaxPeerCount);
  config.seeder_count = cli.get_count("seeders", 1, sim::kMaxPeerCount);
  // Fractions, rates, and probabilities are range-validated: silent
  // nonsense like --free-riders 1.5 or a negative --arrival-rate fails
  // here with the legal range, matching the journal path's strictness.
  config.free_rider_fraction = cli.get_double_in("free-riders", 0.0, 0.0, 1.0);
  config.strategic_fraction = cli.get_double_in("strategic", 0.0, 0.0, 1.0);
  config.file_bytes = cli.get_int("file-mb", 32) * 1024LL * 1024LL;
  config.piece_bytes = cli.get_int("piece-kb", 256) * 1024LL;
  config.graph.degree = cli.get_count("degree", 30, sim::kMaxPeerCount);
  config.max_time = cli.get_double_in("max-time", 4000.0, 1e-6, 1e9);
  config.linger_time = cli.get_double_in("linger", 0.0, 0.0, 1e9);
  config.alpha_r = cli.get_double_in("alpha-r", 0.1, 0.0, 1.0);
  config.tchain_backlog =
      static_cast<int>(cli.get_int("tchain-backlog", config.tchain_backlog));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  const std::string pieces = cli.get_string("pieces", "rarest");
  if (pieces == "rarest") {
    config.piece_selection = sim::PieceSelection::kRarestFirst;
  } else if (pieces == "random") {
    config.piece_selection = sim::PieceSelection::kRandom;
  } else if (pieces == "sequential") {
    config.piece_selection = sim::PieceSelection::kSequential;
  } else {
    throw std::invalid_argument("--pieces: rarest|random|sequential");
  }

  const std::string arrivals = cli.get_string("arrivals", "flash");
  if (arrivals == "flash") {
    config.arrivals = sim::ArrivalProcess::kFlashCrowd;
  } else if (arrivals == "poisson") {
    config.arrivals = sim::ArrivalProcess::kPoisson;
  } else if (arrivals == "staggered") {
    config.arrivals = sim::ArrivalProcess::kStaggered;
  } else {
    throw std::invalid_argument("--arrivals: flash|poisson|staggered");
  }
  config.arrival_rate = cli.get_double_in("arrival-rate", 10.0, 1e-9, 1e9);

  const std::string reputation = cli.get_string("reputation", "ledger");
  if (reputation == "ledger") {
    config.reputation_mode = sim::ReputationMode::kGlobalLedger;
  } else if (reputation == "eigentrust") {
    config.reputation_mode = sim::ReputationMode::kEigenTrust;
  } else {
    throw std::invalid_argument("--reputation: ledger|eigentrust");
  }

  const std::string attack = cli.get_string("attack", "");
  if (attack == "collusion") {
    config.attack.collusion = true;
  } else if (attack == "whitewash") {
    config.attack.whitewashing = true;
  } else if (attack == "sybil") {
    config.attack.sybil_praise = true;
  } else if (attack == "targeted") {
    config.attack = exp::targeted_attack(config.algorithm);
  } else if (!attack.empty()) {
    throw std::invalid_argument(
        "--attack: collusion|whitewash|sybil|targeted");
  }
  config.attack.large_view = cli.has("large-view");

  const std::string churn = cli.get_string("churn", "none");
  if (churn == "moderate") {
    config.faults = sim::moderate_churn();
  } else if (churn == "heavy") {
    config.faults = sim::heavy_churn();
  } else if (churn != "none") {
    throw std::invalid_argument("--churn: none|moderate|heavy");
  }
  config.faults.transfer_loss_rate = cli.get_double_in("loss", 0.0, 0.0, 1.0);
  config.faults.transfer_stall_rate =
      cli.get_double_in("stall", 0.0, 0.0, 1.0);

  if (cli.has("audit") || cli.has("audit-every")) {
    if (!sim::kAuditCompiledIn) {
      throw std::invalid_argument(
          "--audit needs a build configured with -DCOOPNET_AUDIT=ON "
          "(this binary compiled the instrumentation away)");
    }
    config.audit_every =
        static_cast<std::uint64_t>(cli.get_int("audit-every", 1));
  }
  config.validate();
  return config;
}

// Renders the replication aggregate table shared by the legacy and
// supervised --reps paths.
void print_aggregate(const std::string& title,
                     const exp::ReplicatedReport& rep, double wall,
                     std::size_t reps, std::size_t jobs) {
  util::Table table(title);
  table.set_header({"metric", "mean +/- 95% CI"});
  table.add_row({"completed fraction",
                 rep.completed_fraction.to_string()});
  table.add_row({"mean completion (s)", rep.mean_completion.to_string()});
  table.add_row({"median bootstrap (s)",
                 rep.median_bootstrap.to_string()});
  table.add_row({"settled fairness (u/d)",
                 rep.settled_fairness.to_string()});
  table.add_row({"fairness F", rep.fairness_F.to_string()});
  table.add_row({"susceptibility", rep.susceptibility.to_string()});
  std::printf("%s", table.render().c_str());
  std::printf("replication wall-clock: %.3f s (%zu runs, %.3f runs/s, "
              "jobs=%zu)\n",
              wall, reps, wall > 0.0 ? static_cast<double>(reps) / wall : 0.0,
              jobs);
}

// --reps with any supervision flag: per-replication watchdogs, quarantine,
// journal/resume, and SIGINT/SIGTERM draining to exit 128+signum.
int run_replicated_supervised_cli(const util::Cli& cli,
                                  const sim::SwarmConfig& config,
                                  std::size_t reps, std::size_t jobs,
                                  const exp::SweepControl& control) {
  exp::SweepJournal sj = exp::open_sweep_journal(control, reps, config.seed);
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
  const auto t0 = std::chrono::steady_clock::now();
  const exp::SupervisedReplication out = exp::run_replicated_supervised(
      config, reps, config.seed, jobs, supervision, sj.journal.get(),
      sj.resume.get(), control.checkpoint);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t ok = out.sweep.count(exp::CellOutcome::Status::kOk);
  const std::string title =
      ok == reps ? "aggregated over " + std::to_string(reps) + " seeds"
                 : "aggregated over " + std::to_string(ok) + " of " +
                       std::to_string(reps) + " seeds";
  print_aggregate(title, out.aggregate, wall, reps, jobs);
  std::printf("sweep: %s\n", out.sweep.timing.to_string().c_str());
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
  for (const char* flag : {"reps", "trace", "trace-out", "audit",
                           "audit-every", "journal", "resume",
                           "cell-timeout", "event-budget",
                           "checkpoint-every", "checkpoint", "restore"}) {
    if (cli.has(flag)) {
      throw std::invalid_argument(
          std::string("--") + flag +
          " needs the event backend (--backend event)");
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
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 1));
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
    const long jobs_flag = cli.get_int("jobs", 0);
    if (jobs_flag < 0) throw std::invalid_argument("--jobs must be >= 1");
    const auto jobs = jobs_flag == 0 ? exp::default_jobs()
                                     : static_cast<std::size_t>(jobs_flag);
    if (control.active()) {
      return run_replicated_supervised_cli(cli, config, reps, jobs, control);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = exp::run_replicated(config, reps, config.seed, jobs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    print_aggregate("aggregated over " + std::to_string(reps) + " seeds",
                    rep, wall, reps, jobs);
    if (cli.has("json")) {
      std::printf("%s\n", metrics::to_json(rep.runs).c_str());
    }
    if (cli.has("json-out")) {
      util::write_file_atomic(cli.get_string("json-out", ""),
                              metrics::to_json(rep.runs) + "\n");
    }
    return 0;
  }

  // Single run; optionally with the in-memory trace and/or a streaming
  // JSONL sink attached (sink -> log -> collector, each chaining on), and
  // optionally checkpointed (--checkpoint) or restored (--restore).
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
  if (cli.has("restore") && cli.has("trace")) {
    throw std::invalid_argument(
        "--trace keeps the whole trace in memory and cannot span a "
        "restore; use --trace-out FILE (it is truncated to the snapshot "
        "offset and continued byte-identically)");
  }
  const bool checkpointing = !ckpt_file.empty() || !restore_file.empty();

  std::vector<sim::SnapshotSection> sections;
  std::uint64_t trace_offset = 0;
  bool have_trace_section = false;
  const bool restored = !restore_file.empty();
  if (restored) {
    std::ifstream in(restore_file, std::ios::binary);
    if (!in) {
      throw std::invalid_argument("--restore: cannot read " + restore_file);
    }
    std::ostringstream os;
    os << in.rdbuf();
    // Throws sim::CheckpointError (with the failing section/offset) on a
    // truncated, bit-rotted, or config-mismatched snapshot.
    sections = sim::decode_snapshot(config, os.str());
    for (const sim::SnapshotSection& s : sections) {
      if (s.id != sim::kSectionTrace) continue;
      util::ByteSource src(s.payload, "trace section");
      trace_offset = src.get_u64();
      src.expect_exhausted();
      have_trace_section = true;
    }
  }

  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::unique_ptr<exp::CellGuard> guard;
  if (control.supervision.any() || checkpointing) {
    // A checkpointed run always polls the cancel flag: SIGINT/SIGTERM
    // then stop it at a guard tick and it leaves a final snapshot.
    control.supervision.cancel = &g_cancel;
    install_signal_handlers();
    guard = std::make_unique<exp::CellGuard>(swarm.engine(),
                                             control.supervision);
  }
  metrics::RunMetrics collector;
  if (restored) {
    swarm.start_restored();
    collector.install_restored(swarm);
  } else {
    collector.install(swarm);
  }
  metrics::TraceLog trace(cli.has("trace"));
  std::unique_ptr<metrics::TraceSink> sink;
  sim::SwarmObserver* head = nullptr;
  if (cli.has("trace")) {
    trace.chain(&collector);
    head = &trace;
  }
  if (cli.has("trace-out")) {
    const std::string trace_path = cli.get_string("trace-out", "");
    if (restored) {
      if (!have_trace_section) {
        throw std::invalid_argument(
            "--restore: the snapshot has no trace section (the original "
            "run did not stream --trace-out); drop --trace-out or restart "
            "from scratch");
      }
      sink = std::make_unique<metrics::TraceSink>(trace_path, true,
                                                  trace_offset);
    } else {
      sink = std::make_unique<metrics::TraceSink>(trace_path);
    }
    sink->chain(head != nullptr ? head : &collector);
    head = sink.get();
  } else if (restored && have_trace_section) {
    std::fprintf(stderr,
                 "coopnet_run: warning: the snapshot recorded a streamed "
                 "trace but --trace-out is absent; the trace file will "
                 "not be continued\n");
  }
  if (head != nullptr) swarm.set_observer(head);

  auto take_snapshot = [&] {
    std::vector<sim::SnapshotSection> snap =
        sim::SwarmCheckpoint::save(swarm);
    util::ByteSink msink;
    collector.checkpoint_save(msink);
    snap.push_back({sim::kSectionMetrics, msink.take()});
    if (sink != nullptr) {
      util::ByteSink tsink;
      tsink.put_u64(sink->bytes_written());
      snap.push_back({sim::kSectionTrace, tsink.take()});
    }
    util::write_file_atomic(ckpt_file, sim::encode_snapshot(config, snap));
  };

  if (!checkpointing) {
    swarm.run();
  } else {
    if (restored) {
      sim::SwarmCheckpoint::restore(swarm, sections);
      for (const sim::SnapshotSection& s : sections) {
        if (s.id != sim::kSectionMetrics) continue;
        util::ByteSource src(s.payload, "metrics section");
        collector.checkpoint_load(src);
        src.expect_exhausted();
      }
    } else {
      swarm.start();
    }
    const double every = control.checkpoint.every;
    if (!ckpt_file.empty()) {
      double next =
          restored
              ? (std::floor(swarm.engine().now() / every) + 1.0) * every
              : every;
      while (!swarm.finished() && next < config.max_time) {
        swarm.advance_until(next);
        if (swarm.finished()) break;
        take_snapshot();
        next += every;
      }
    }
    if (!swarm.finished()) swarm.advance_until(config.max_time);
    if (!ckpt_file.empty() && guard != nullptr &&
        guard->status() == exp::CellOutcome::Status::kSkipped) {
      // Graceful preemption: the interrupt landed between events, so the
      // final snapshot resumes with nothing to replay.
      take_snapshot();
      std::fprintf(stderr,
                   "coopnet_run: snapshot written to %s; rerun with "
                   "--restore %s to continue\n",
                   ckpt_file.c_str(), ckpt_file.c_str());
    }
  }
  const auto report = metrics::build_report(swarm, collector);
  const bool cancelled =
      guard != nullptr && guard->status() != exp::CellOutcome::Status::kOk;
  if (!ckpt_file.empty() && !cancelled) {
    std::remove(ckpt_file.c_str());  // clean completion: prune the snapshot
  }
  if (cancelled) {
    std::printf("run cancelled: %s (metrics below cover the partial run)\n",
                guard->reason().c_str());
  }
  std::printf("%s\n", metrics::summarize_report(report).c_str());
  if (const auto* auditor = swarm.auditor()) {
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
  if (cli.has("trace")) {
    std::printf("%s", trace.to_csv().c_str());
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
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf("%s", kHelp);
    return 0;
  }
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coopnet_run: %s\n(--help for usage)\n", e.what());
    return 1;
  }
}
