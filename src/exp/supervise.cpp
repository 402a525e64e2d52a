#include "exp/supervise.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exp/journal.h"
#include "metrics/json.h"
#include "metrics/run_metrics.h"
#include "sim/checkpoint.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/atomic_file.h"
#include "util/byteio.h"

namespace coopnet::exp {

void CheckpointPolicy::validate() const {
  if (std::isnan(every) || std::isinf(every) || every < 0.0) {
    throw std::invalid_argument(
        "CheckpointPolicy: `every` must be a finite number of simulated "
        "seconds >= 0 (0 disables mid-cell checkpointing)");
  }
  if (resume_from_disk && file_prefix.empty()) {
    throw std::invalid_argument(
        "CheckpointPolicy: resume_from_disk needs a file_prefix to find "
        "the snapshots (or use snapshot_source for in-memory resume)");
  }
}

std::string cell_snapshot_path(const std::string& prefix,
                               std::size_t index) {
  return prefix + ".ckpt." + std::to_string(index);
}

bool Supervision::any() const {
  return cell_timeout > 0.0 || event_budget != 0 || cancel != nullptr;
}

void Supervision::validate() const {
  if (std::isnan(cell_timeout) || cell_timeout < 0.0 ||
      std::isinf(cell_timeout)) {
    throw std::invalid_argument(
        "Supervision: cell_timeout must be a finite number of seconds "
        ">= 0 (0 disables the wall-clock watchdog)");
  }
  if (guard_every == 0) {
    throw std::invalid_argument(
        "Supervision: guard_every must be >= 1 engine event");
  }
}

const char* to_string(CellOutcome::Status status) {
  switch (status) {
    case CellOutcome::Status::kOk:
      return "ok";
    case CellOutcome::Status::kFailed:
      return "failed";
    case CellOutcome::Status::kTimedOut:
      return "timed-out";
    case CellOutcome::Status::kSkipped:
      return "skipped";
  }
  return "unknown";
}

CellOutcome::Status status_from_string(const std::string& name) {
  if (name == "ok") return CellOutcome::Status::kOk;
  if (name == "failed") return CellOutcome::Status::kFailed;
  if (name == "timed-out") return CellOutcome::Status::kTimedOut;
  if (name == "skipped") return CellOutcome::Status::kSkipped;
  throw std::invalid_argument("unknown CellOutcome status: " + name);
}

std::size_t SweepResult::count(CellOutcome::Status status) const {
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (o.status == status) ++n;
  }
  return n;
}

std::size_t SweepResult::resumed() const {
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (o.from_journal) ++n;
  }
  return n;
}

bool SweepResult::complete() const {
  return count(CellOutcome::Status::kOk) == outcomes.size();
}

std::vector<metrics::RunReport> SweepResult::ok_reports() const {
  std::vector<metrics::RunReport> reports;
  reports.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.ok() && o.has_report) reports.push_back(o.report);
  }
  return reports;
}

std::vector<metrics::RunReport> SweepResult::reports() const {
  if (!complete()) {
    throw std::runtime_error(
        "sweep degraded: " +
        std::to_string(outcomes.size() - count(CellOutcome::Status::kOk)) +
        " of " + std::to_string(outcomes.size()) +
        " cells did not complete\n" + degradation_summary());
  }
  return ok_reports();
}

void SweepResult::tally_timing(std::size_t jobs,
                               std::chrono::steady_clock::time_point start) {
  timing.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  timing.cells = outcomes.size();
  timing.jobs = jobs;
  timing.completed = count(CellOutcome::Status::kOk);
  timing.failed = count(CellOutcome::Status::kFailed) +
                  count(CellOutcome::Status::kTimedOut);
  timing.skipped = count(CellOutcome::Status::kSkipped);
}

std::string SweepResult::degradation_summary() const {
  std::ostringstream os;
  for (const auto& o : outcomes) {
    if (o.ok()) continue;
    os << "  cell " << o.index << " (" << o.algorithm << ", seed " << o.seed
       << "): " << to_string(o.status);
    if (!o.error.empty()) os << ": " << o.error;
    os << "\n";
  }
  return os.str();
}

std::string SweepResult::merged_json() const {
  // Frame exactly like metrics::to_json(std::vector<RunReport>): when
  // every cell is ok the bytes are identical to the unsupervised dump.
  std::string out = "[\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i) out += ",\n";
    out += outcomes[i].has_report ? outcomes[i].report_json : "null";
  }
  out += "\n]";
  return out;
}

CellGuard::CellGuard(sim::SimEngine& engine, const Supervision& supervision)
    : engine_(engine),
      cell_timeout_(supervision.cell_timeout),
      event_budget_(supervision.event_budget) {
  if (event_budget_ != 0) engine_.set_event_limit(event_budget_);
  const bool watch_clock = cell_timeout_ > 0.0;
  const std::atomic<bool>* cancel = supervision.cancel;
  if (!watch_clock && cancel == nullptr) return;
  start_ = std::chrono::steady_clock::now();
  engine_.set_guard(
      supervision.guard_every, [this, watch_clock, cancel] {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          interrupted_ = true;
          engine_.stop();
        } else if (watch_clock &&
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                           .count() >= cell_timeout_) {
          timed_out_ = true;
          engine_.stop();
        }
      });
}

CellOutcome::Status CellGuard::status() const {
  if (interrupted_) return CellOutcome::Status::kSkipped;
  if (engine_.event_limit_hit() || timed_out_) {
    return CellOutcome::Status::kTimedOut;
  }
  return CellOutcome::Status::kOk;
}

std::string CellGuard::reason() const {
  if (interrupted_) {
    return "interrupted mid-run (sweep cancelled); partial work discarded";
  }
  if (engine_.event_limit_hit()) {
    std::ostringstream os;
    os << "event budget exhausted after " << event_budget_
       << " engine events (--event-budget)";
    return os.str();
  }
  if (timed_out_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", cell_timeout_);
    return std::string("wall-clock timeout: exceeded --cell-timeout ") +
           buf + " s";
  }
  return "";
}

CellRun::CellRun(const sim::SwarmConfig& config,
                 const Supervision& supervision)
    : swarm_(config, strategy::make_strategy(config.algorithm)),
      guard_(swarm_.engine(), supervision) {
  metrics_.install(swarm_);
  swarm_.start();
}

CellRun::CellRun(const sim::SwarmConfig& config,
                 const Supervision& supervision,
                 const std::vector<sim::SnapshotSection>& sections)
    : swarm_(config, strategy::make_strategy(config.algorithm)),
      guard_(swarm_.engine(), supervision) {
  // Exactly one metrics section: without it the restored run would
  // report only what happened after the snapshot, and two leave it
  // ambiguous which accumulators are the run's.
  const auto is_metrics = [](const sim::SnapshotSection& s) {
    return s.id == sim::kSectionMetrics;
  };
  const auto count = std::count_if(sections.begin(), sections.end(),
                                   is_metrics);
  if (count != 1) {
    throw sim::CheckpointError(
        "checkpoint restore: the snapshot has " + std::to_string(count) +
        " metrics sections, not one -- restart the cell from scratch");
  }
  swarm_.start_restored();
  metrics_.install_restored(swarm_);
  sim::SwarmCheckpoint::restore(swarm_, sections);
  try {
    util::ByteSource src(
        std::find_if(sections.begin(), sections.end(), is_metrics)->payload,
        "metrics section");
    metrics_.checkpoint_load(src);
    src.expect_exhausted();
  } catch (const std::exception& e) {
    // util::SerializeError for a short or long payload, and
    // std::invalid_argument for a sample series that goes back in time.
    throw sim::CheckpointError(
        std::string("checkpoint restore: the metrics section is malformed "
                    "(") +
        e.what() + ") -- restart the cell from scratch");
  }
}

std::vector<sim::SnapshotSection> CellRun::save() const {
  std::vector<sim::SnapshotSection> sections =
      sim::SwarmCheckpoint::save(swarm_);
  util::ByteSink sink;
  metrics_.checkpoint_save(sink);
  sections.push_back({sim::kSectionMetrics, sink.take()});
  return sections;
}

void CellRun::run(double every, const std::function<void()>& on_boundary) {
  const double max_time = swarm_.config().max_time;
  if (every > 0.0) {
    // The first boundary is the first multiple of `every` past the clock:
    // `every` itself for a fresh cell. A restored cell's snapshot chunk
    // may have stopped short of its deadline (run_until parks the clock
    // on the last executed event), and re-running that empty remainder
    // is a no-op.
    double next = (std::floor(swarm_.engine().now() / every) + 1.0) * every;
    while (!swarm_.finished() && next < max_time) {
      swarm_.advance_until(next);
      if (swarm_.finished()) break;  // stopped or drained: no snapshot
      on_boundary();
      next += every;
    }
  }
  if (!swarm_.finished()) swarm_.advance_until(max_time);
  if (every > 0.0 && guard_.status() == CellOutcome::Status::kSkipped) {
    // Graceful preemption: the cancel flag stopped the engine between
    // events, so this final snapshot resumes with nothing to replay.
    on_boundary();
  }
}

namespace {

/// The encoded snapshot `checkpoint` resumes cell `index` from; "" (start
/// fresh) when there is none or its file does not exist or cannot be read.
std::string resume_bytes(const CheckpointPolicy& checkpoint,
                         std::size_t index, const std::string& path) {
  if (!checkpoint.active()) return "";
  if (checkpoint.snapshot_source) return checkpoint.snapshot_source(index);
  if (!checkpoint.resume_from_disk) return "";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

CellOutcome run_supervised_cell(std::size_t index,
                                const sim::SwarmConfig& config,
                                const Supervision& supervision,
                                const CheckpointPolicy& checkpoint) {
  CellOutcome out;
  out.index = index;
  out.seed = config.seed;
  out.algorithm = core::to_string(config.algorithm);
  const auto start = std::chrono::steady_clock::now();
  try {
    checkpoint.validate();
    const std::string path =
        checkpoint.file_prefix.empty()
            ? std::string()
            : cell_snapshot_path(checkpoint.file_prefix, index);

    std::optional<CellRun> cell;
    const std::string bytes = resume_bytes(checkpoint, index, path);
    if (!bytes.empty()) {
      try {
        cell.emplace(config, supervision, sim::decode_snapshot(config, bytes));
        out.resumed_from_checkpoint = true;
        out.restored_events = cell->swarm().engine().events_processed();
      } catch (const sim::CheckpointError& e) {
        // "Never wrong, only slower": a rejected snapshot costs the cell
        // its head start, not its result.
        std::fprintf(stderr,
                     "cell %zu: snapshot rejected -- %s\ncell %zu: "
                     "restarting from scratch\n",
                     index, e.what(), index);
      }
    }
    if (!cell) cell.emplace(config, supervision);

    cell->run(checkpoint.every, [&] {
      const std::string snapshot = sim::encode_snapshot(config, cell->save());
      if (!path.empty()) util::write_file_atomic(path, snapshot);
      if (checkpoint.on_snapshot) checkpoint.on_snapshot(index, snapshot);
    });

    out.events = cell->swarm().engine().events_processed();
    out.status = cell->guard().status();
    if (out.ok()) {
      out.report = metrics::build_report(cell->swarm(), cell->metrics());
      out.report_json = metrics::to_json(out.report);
      out.has_report = true;
    } else {
      out.error = cell->guard().reason();
    }
  } catch (const std::exception& e) {
    out.status = CellOutcome::Status::kFailed;
    out.error = e.what();
  } catch (...) {
    out.status = CellOutcome::Status::kFailed;
    out.error = "unknown exception";
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return out;
}

SweepResult run_cells(const std::vector<sim::SwarmConfig>& cells,
                      std::size_t jobs, const Supervision& supervision,
                      RunJournal* journal, const JournalIndex* resume,
                      const CheckpointPolicy& checkpoint) {
  supervision.validate();
  checkpoint.validate();
  if (jobs == 0) jobs = default_jobs();
  const auto start = std::chrono::steady_clock::now();

  const bool prune_snapshots =
      checkpoint.active() && !checkpoint.file_prefix.empty();
  auto prune = [&checkpoint, prune_snapshots](std::size_t i) {
    if (!prune_snapshots) return;
    std::remove(cell_snapshot_path(checkpoint.file_prefix, i).c_str());
  };

  SweepResult result;
  result.outcomes.resize(cells.size());

  // Resume pass first: restore journaled outcomes, collect what remains.
  std::vector<std::size_t> todo;
  todo.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JournalEntry* entry =
        resume != nullptr ? resume->find(i) : nullptr;
    if (entry != nullptr) {
      result.outcomes[i] = outcome_from_journal(*entry, cells[i]);
      // A crash between the journal fsync and the prune can strand the
      // cell's snapshot; it is dead weight now.
      prune(i);
    } else {
      todo.push_back(i);
    }
  }

  // Each worker writes only its own pre-sized slot, so no
  // synchronization beyond the journal's own lock.
  auto run_one = [&result, &cells, &supervision, journal, &checkpoint,
                  &prune](std::size_t i) {
    if (supervision.cancel != nullptr &&
        supervision.cancel->load(std::memory_order_relaxed)) {
      CellOutcome out;
      out.status = CellOutcome::Status::kSkipped;
      out.index = i;
      out.seed = cells[i].seed;
      out.algorithm = core::to_string(cells[i].algorithm);
      out.error = "sweep interrupted before this cell started";
      result.outcomes[i] = std::move(out);
      return;
    }
    CellOutcome out = run_supervised_cell(i, cells[i], supervision,
                                          checkpoint);
    // Only terminal outcomes are journaled: a skipped (interrupted) cell
    // must re-run on resume -- and keeps its snapshot, so the re-run
    // replays one chunk tail instead of the whole cell.
    if (journal != nullptr && out.status != CellOutcome::Status::kSkipped) {
      journal->record(out);
    }
    if (out.status != CellOutcome::Status::kSkipped) prune(i);
    result.outcomes[i] = std::move(out);
  };

  // run_one never throws for cell errors; a journal I/O failure is a
  // sweep-level error and propagates.
  for_each_cell(todo.size(), jobs,
                [&run_one, &todo](std::size_t k) { run_one(todo[k]); });

  result.tally_timing(jobs, start);
  return result;
}

SweepControl sweep_control_from_cli(const util::Cli& cli) {
  SweepControl control;
  if (cli.has("cell-timeout")) {
    const double t = cli.get_double("cell-timeout", 0.0);
    if (std::isnan(t) || std::isinf(t) || t <= 0.0) {
      throw std::invalid_argument(
          "--cell-timeout must be a finite number of seconds > 0 (got " +
          cli.get_string("cell-timeout", "") +
          "); omit the flag to disable the per-cell watchdog");
    }
    control.supervision.cell_timeout = t;
  }
  if (cli.has("event-budget")) {
    const long budget = cli.get_int("event-budget", 0);
    if (budget <= 0) {
      throw std::invalid_argument(
          "--event-budget must be >= 1 engine event (got " +
          cli.get_string("event-budget", "") +
          "); omit the flag to disable the per-cell event budget");
    }
    control.supervision.event_budget = static_cast<std::uint64_t>(budget);
  }
  control.journal_path = cli.get_string("journal", "");
  if (cli.has("journal") && control.journal_path.empty()) {
    throw std::invalid_argument(
        "--journal needs a file path to write the run journal to");
  }
  control.resume_path = cli.get_string("resume", "");
  if (cli.has("resume") && control.resume_path.empty()) {
    throw std::invalid_argument(
        "--resume needs the journal file of the interrupted sweep");
  }
  if (!control.resume_path.empty()) {
    if (control.journal_path.empty()) {
      // Resuming keeps appending new outcomes to the same journal.
      control.journal_path = control.resume_path;
    } else if (control.journal_path != control.resume_path) {
      throw std::invalid_argument(
          "--journal and --resume must name the same file (resume appends "
          "new outcomes to the journal it reads); drop --journal or make "
          "them match");
    }
  }
  if (cli.has("checkpoint-every")) {
    const double every = cli.get_double("checkpoint-every", 0.0);
    if (std::isnan(every) || std::isinf(every) || every <= 0.0) {
      throw std::invalid_argument(
          "--checkpoint-every must be a finite number of SIMULATED "
          "seconds > 0 (got " +
          cli.get_string("checkpoint-every", "") +
          "); omit the flag to disable mid-cell checkpointing");
    }
    // Single-run tools pair the cadence with their own --checkpoint FILE
    // instead of a journal (they fill file_prefix themselves), and fleet
    // workers ship snapshots to the coordinator over the wire instead of
    // to disk (no journal on the worker side).
    if (control.journal_path.empty() && !cli.has("checkpoint") &&
        !cli.has("fleet-connect")) {
      throw std::invalid_argument(
          "--checkpoint-every keeps each cell's snapshot next to the run "
          "journal; add --journal FILE (or --resume FILE), or use "
          "--checkpoint FILE for a single run");
    }
    control.checkpoint.every = every;
    if (!control.journal_path.empty()) {
      control.checkpoint.file_prefix = control.journal_path;
      control.checkpoint.resume_from_disk = !control.resume_path.empty();
    }
  }
  control.supervision.validate();
  control.checkpoint.validate();
  return control;
}

std::vector<util::CliFlag> sweep_control_flags() {
  return {
      {"supervision", "cell-timeout", "S",
       "wall-clock watchdog per cell; a cell exceeding it is cancelled and "
       "quarantined"},
      {"supervision", "event-budget", "N",
       "cancel a cell after exactly N engine events"},
      {"supervision", "journal", "FILE",
       "append each completed cell to FILE as an fsync'd JSON line"},
      {"supervision", "resume", "FILE",
       "skip cells already journaled in FILE and merge their results "
       "bit-identically (implies --journal FILE)"},
      {"supervision", "checkpoint-every", "S",
       "snapshot each cell every S SIMULATED seconds next to the journal; "
       "--resume restores mid-cell (results are byte-identical either way)"},
  };
}

std::vector<util::CliFlag> jobs_flags() {
  return {{"supervision", "jobs", "J",
           "cells run concurrently, 1.." + std::to_string(kMaxJobs) +
               " (0 or absent: every hardware thread; results are "
               "bit-identical for every J)"}};
}

std::size_t jobs_from_cli(const util::Cli& cli) {
  const long jobs = cli.get_int("jobs", 0);
  if (jobs < 0 || static_cast<unsigned long>(jobs) > kMaxJobs) {
    throw std::invalid_argument(
        "--jobs must be between 1 and " + std::to_string(kMaxJobs) +
        " (got " + cli.get_string("jobs", "") +
        "); omit it or pass 0 to use every hardware thread");
  }
  return jobs == 0 ? default_jobs() : static_cast<std::size_t>(jobs);
}

SweepJournal open_sweep_journal(const SweepControl& control,
                                const SweepFingerprint& sweep) {
  SweepJournal sj;
  if (!control.resume_path.empty()) {
    sj.resume = std::make_unique<JournalIndex>(
        JournalIndex::load(control.resume_path));
    if (sj.resume->fingerprint() != sweep) {
      throw std::invalid_argument(
          "--resume: journal " + control.resume_path + " describes a sweep of " +
          sj.resume->fingerprint().describe() + ", but this command runs " +
          sweep.describe() +
          " -- resume with the exact command line of the interrupted sweep");
    }
    sj.journal = std::make_unique<RunJournal>(control.resume_path,
                                              RunJournal::Mode::kAppend);
  } else if (!control.journal_path.empty()) {
    sj.journal = std::make_unique<RunJournal>(control.journal_path,
                                              RunJournal::Mode::kTruncate);
    sj.journal->write_header(sweep);
  }
  return sj;
}

}  // namespace coopnet::exp
