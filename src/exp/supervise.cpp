#include "exp/supervise.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
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
#include "util/thread_pool.h"

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

namespace {

/// Slurps a snapshot file; "" when it does not exist or cannot be read
/// (both mean "start the cell fresh").
std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The chunked, snapshotting run path of run_supervised_cell. Chunked
/// advance_until is byte-identical to one run() (the clock only moves on
/// event execution), so the snapshots are pure observation. Fills the
/// run-dependent fields of `out`; the caller owns timing and the catch.
void run_checkpointed_cell(CellOutcome& out, std::size_t index,
                           const sim::SwarmConfig& config,
                           const Supervision& supervision,
                           const CheckpointPolicy& checkpoint) {
  checkpoint.validate();
  const std::string path =
      checkpoint.file_prefix.empty()
          ? std::string()
          : cell_snapshot_path(checkpoint.file_prefix, index);

  auto swarm = std::make_unique<sim::Swarm>(
      config, strategy::make_strategy(config.algorithm));
  auto collector = std::make_unique<metrics::RunMetrics>();

  std::string resume_bytes;
  if (checkpoint.snapshot_source) {
    resume_bytes = checkpoint.snapshot_source(index);
  } else if (checkpoint.resume_from_disk && !path.empty()) {
    resume_bytes = read_snapshot_file(path);
  }

  bool restored = false;
  if (!resume_bytes.empty()) {
    try {
      const std::vector<sim::SnapshotSection> sections =
          sim::decode_snapshot(config, resume_bytes);
      swarm->start_restored();
      collector->install_restored(*swarm);
      sim::SwarmCheckpoint::restore(*swarm, sections);
      for (const sim::SnapshotSection& s : sections) {
        if (s.id != sim::kSectionMetrics) continue;
        util::ByteSource src(s.payload, "metrics section");
        collector->checkpoint_load(src);
        src.expect_exhausted();
      }
      restored = true;
    } catch (const sim::CheckpointError& e) {
      std::fprintf(stderr,
                   "cell %zu: snapshot rejected -- %s\ncell %zu: "
                   "restarting from scratch\n",
                   index, e.what(), index);
      // A restore can fail mid-apply; rebuild both from nothing.
      swarm = std::make_unique<sim::Swarm>(
          config, strategy::make_strategy(config.algorithm));
      collector = std::make_unique<metrics::RunMetrics>();
    }
  }

  CellGuard guard(swarm->engine(), supervision);
  if (restored) {
    out.resumed_from_checkpoint = true;
    out.restored_events = swarm->engine().events_processed();
  } else {
    // Same install-then-start order as the plain path: the sampler's
    // event sequence numbers must match run()'s exactly.
    collector->install(*swarm);
    swarm->start();
  }

  auto take_snapshot = [&] {
    std::vector<sim::SnapshotSection> sections =
        sim::SwarmCheckpoint::save(*swarm);
    util::ByteSink msink;
    collector->checkpoint_save(msink);
    sections.push_back({sim::kSectionMetrics, msink.take()});
    const std::string bytes = sim::encode_snapshot(config, sections);
    if (!path.empty()) util::write_file_atomic(path, bytes);
    if (checkpoint.on_snapshot) checkpoint.on_snapshot(index, bytes);
  };

  // A restored cell's next boundary is the first multiple of `every`
  // past the snapshot time: the chunk it was snapshotted after may have
  // stopped short of its deadline (run_until parks the clock on the last
  // executed event), and re-running that empty remainder is a no-op.
  double next = restored ? (std::floor(swarm->engine().now() /
                                       checkpoint.every) +
                            1.0) *
                               checkpoint.every
                         : checkpoint.every;
  while (!swarm->finished() && next < config.max_time) {
    swarm->advance_until(next);
    if (swarm->finished()) break;  // stopped or drained: no snapshot
    take_snapshot();
    next += checkpoint.every;
  }
  if (!swarm->finished()) swarm->advance_until(config.max_time);

  if (guard.status() == CellOutcome::Status::kSkipped) {
    // Graceful preemption: the cancel flag stopped the engine between
    // events, so this final snapshot resumes with nothing to replay.
    take_snapshot();
  }

  out.events = swarm->engine().events_processed();
  out.status = guard.status();
  if (out.ok()) {
    out.report = metrics::build_report(*swarm, *collector);
    out.report_json = metrics::to_json(out.report);
    out.has_report = true;
  } else {
    out.error = guard.reason();
  }
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
    if (checkpoint.active()) {
      run_checkpointed_cell(out, index, config, supervision, checkpoint);
    } else {
      sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
      metrics::RunMetrics collector;
      collector.install(swarm);
      CellGuard guard(swarm.engine(), supervision);
      swarm.run();
      out.events = swarm.engine().events_processed();
      out.status = guard.status();
      if (out.ok()) {
        out.report = metrics::build_report(swarm, collector);
        out.report_json = metrics::to_json(out.report);
        out.has_report = true;
      } else {
        out.error = guard.reason();
      }
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

SweepResult run_cells_supervised(const std::vector<sim::SwarmConfig>& cells,
                                 std::size_t jobs,
                                 const Supervision& supervision,
                                 RunJournal* journal,
                                 const JournalIndex* resume,
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

  // Each worker writes only its own pre-sized slot (same slot discipline
  // as run_cells), so no synchronization beyond the journal's own lock.
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

  if (jobs == 1 || todo.size() <= 1) {
    for (std::size_t i : todo) run_one(i);
  } else {
    util::ThreadPool pool(std::min(jobs, todo.size()));
    std::vector<std::future<void>> pending;
    pending.reserve(todo.size());
    for (std::size_t i : todo) {
      pending.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    // run_one never throws for cell errors; a journal I/O failure is a
    // sweep-level error and propagates.
    for (auto& f : pending) f.get();
  }

  result.timing.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.timing.cells = cells.size();
  result.timing.jobs = jobs;
  result.timing.completed = result.count(CellOutcome::Status::kOk);
  result.timing.failed = result.count(CellOutcome::Status::kFailed) +
                         result.count(CellOutcome::Status::kTimedOut);
  result.timing.skipped = result.count(CellOutcome::Status::kSkipped);
  return result;
}

bool SweepControl::active() const {
  return supervision.any() || !journal_path.empty() ||
         !resume_path.empty() || checkpoint.active();
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

SweepJournal open_sweep_journal(const SweepControl& control,
                                std::size_t cells,
                                std::uint64_t base_seed) {
  SweepJournal sj;
  if (!control.resume_path.empty()) {
    sj.resume = std::make_unique<JournalIndex>(
        JournalIndex::load(control.resume_path));
    if (sj.resume->sweep_cells() != cells ||
        sj.resume->base_seed() != base_seed) {
      std::ostringstream os;
      os << "--resume: journal " << control.resume_path
         << " describes a sweep of " << sj.resume->sweep_cells()
         << " cells with base seed " << sj.resume->base_seed()
         << ", but this command runs " << cells << " cells with base seed "
         << base_seed
         << " -- resume with the exact command line of the interrupted "
            "sweep";
      throw std::invalid_argument(os.str());
    }
    sj.journal = std::make_unique<RunJournal>(control.resume_path,
                                              RunJournal::Mode::kAppend);
  } else if (!control.journal_path.empty()) {
    sj.journal = std::make_unique<RunJournal>(control.journal_path,
                                              RunJournal::Mode::kTruncate);
    sj.journal->write_header(cells, base_seed);
  }
  return sj;
}

}  // namespace coopnet::exp
