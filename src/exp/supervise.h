// Sweep execution: per-cell watchdogs, failure quarantine, and structured
// outcomes. Every sweep in the repo runs through run_cells below.
//
// run_cells never lets one cell kill the sweep. Every cell yields a
// CellOutcome -- ok with its RunReport, failed with the exception text,
// timed-out when the wall-clock watchdog or event budget cancelled it, or
// skipped (resumed from a journal, or never started because the sweep was
// interrupted) -- and the remaining cells always complete, so a poisoned
// or livelocked cell costs exactly its own data point. Callers that index
// reports by position use SweepResult::reports(), which throws when a
// cell is not ok.
//
// Determinism contract: supervision is enforced cooperatively through
// SimEngine::set_guard / set_event_limit / stop(). No extra events are
// scheduled and no RNG is drawn, so a cell that finishes within its
// limits is bit-identical to an unsupervised run, and an event-budget
// cancellation lands after exactly the budgeted number of events.
// Wall-clock cancellations are inherently non-deterministic in *where*
// they land; the run journal (exp/journal.h) records what actually
// happened either way.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/schedule.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "sim/checkpoint.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "sim/swarm.h"
#include "util/cli.h"

namespace coopnet::exp {

class RunJournal;
class JournalIndex;

/// Per-cell resource limits plus sweep-level cancellation.
struct Supervision {
  /// Wall-clock budget per cell, in seconds; 0 disables the watchdog.
  double cell_timeout = 0.0;
  /// Engine-event budget per cell; 0 disables. Enforced exactly: a
  /// breached cell stops after precisely this many events.
  std::uint64_t event_budget = 0;
  /// How often (in engine events) the wall-clock/cancellation guard runs.
  std::uint64_t guard_every = 1024;
  /// Optional sweep-level cancellation flag (signal handlers flip it);
  /// checked by the guard and before each cell starts. May be null.
  const std::atomic<bool>* cancel = nullptr;

  /// True when any per-cell limit or a cancellation flag is configured.
  bool any() const;
  /// Throws std::invalid_argument (with the offending value) on
  /// nonsensical knobs: negative/NaN cell_timeout, guard_every == 0.
  void validate() const;
};

/// Mid-cell checkpoint cadence for preemption-tolerant sweeps (DESIGN
/// §13). When active, a cell runs in advance_until chunks of `every`
/// simulated seconds with a full SwarmCheckpoint snapshot taken at each
/// boundary -- the chunked run is byte-identical to an uninterrupted one,
/// and a killed cell resumes from its last snapshot re-executing only the
/// tail of one chunk instead of the whole cell.
struct CheckpointPolicy {
  /// Snapshot cadence in SIMULATED seconds; 0 disables mid-cell
  /// checkpointing (cells then advance to max_time in one call).
  double every = 0.0;
  /// Snapshot files live at "<file_prefix>.ckpt.<cell-index>" (one per
  /// cell, atomically replaced each cadence, removed on any terminal
  /// outcome). Empty = no files; snapshots then only reach `on_snapshot`.
  std::string file_prefix;
  /// Restore each cell from its on-disk snapshot when one exists and
  /// decodes cleanly (a rejected snapshot is reported and the cell
  /// restarts from scratch). Requires a non-empty file_prefix.
  bool resume_from_disk = false;
  /// Overrides the resume source: returns the encoded snapshot to resume
  /// cell `index` from ("" = start fresh). Fleet workers use this to
  /// resume from coordinator-shipped bytes instead of local files.
  std::function<std::string(std::size_t index)> snapshot_source;
  /// Called with each freshly encoded snapshot (fleet workers forward it
  /// with the next heartbeat). Runs on the cell's worker thread.
  std::function<void(std::size_t index, const std::string& bytes)>
      on_snapshot;

  bool active() const { return every > 0.0; }
  /// Throws std::invalid_argument on a non-finite/negative cadence or
  /// resume_from_disk without a file_prefix.
  void validate() const;
};

/// "<prefix>.ckpt.<index>" -- where run_supervised_cell keeps cell
/// `index`'s snapshot.
std::string cell_snapshot_path(const std::string& prefix, std::size_t index);

/// What happened to one (scenario, seed) cell.
struct CellOutcome {
  enum class Status {
    kOk,        // ran to completion; `report` is valid
    kFailed,    // threw; `error` holds the exception text
    kTimedOut,  // cancelled by the wall-clock watchdog or event budget
    kSkipped,   // resumed from a journal entry, or never ran (interrupt)
  };

  Status status = Status::kSkipped;
  std::size_t index = 0;      // position in the sweep's cell list
  std::uint64_t seed = 0;     // the cell's SwarmConfig::seed
  std::string algorithm;      // core::to_string of the cell's algorithm
  /// Diagnostic for non-ok cells: exception text, which budget fired, or
  /// why the cell never ran.
  std::string error;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;   // engine events processed before returning
  /// True when the cell resumed from a mid-cell snapshot instead of
  /// starting fresh; `restored_events` is the engine's processed-event
  /// count at the restore point, so this process re-executed only
  /// events - restored_events of the cell's total.
  bool resumed_from_checkpoint = false;
  std::uint64_t restored_events = 0;
  /// True when this outcome was restored from a run journal rather than
  /// executed. `report` then carries only the scalar metrics (enough for
  /// aggregate tables); the series arrays are placeholder NaNs.
  bool from_journal = false;
  bool has_report = false;
  metrics::RunReport report;
  /// The exact metrics::to_json(report) bytes. Journal-resumed cells
  /// restore the bytes recorded by the original run, which is what keeps
  /// a resumed sweep's merged JSON byte-identical to an uninterrupted
  /// one.
  std::string report_json;

  bool ok() const { return status == Status::kOk; }
};

/// "ok" / "failed" / "timed-out" / "skipped".
const char* to_string(CellOutcome::Status status);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
CellOutcome::Status status_from_string(const std::string& name);

/// A supervised sweep's full result: one outcome per cell, input order.
struct SweepResult {
  std::vector<CellOutcome> outcomes;
  SweepTiming timing;

  std::size_t count(CellOutcome::Status status) const;
  /// Outcomes restored from a journal (subset of their own statuses).
  std::size_t resumed() const;
  /// True when every cell is ok (fresh or resumed).
  bool complete() const;
  /// Reports of the ok cells, in input order (journal-resumed cells
  /// contribute their scalar-only stub reports).
  std::vector<metrics::RunReport> ok_reports() const;
  /// Every cell's report, in input order, for callers that index reports
  /// by position. Throws std::runtime_error carrying
  /// degradation_summary() when any cell is not ok.
  std::vector<metrics::RunReport> reports() const;
  /// One line per non-ok cell, e.g.
  /// "  cell 3 (T-Chain, seed 42): timed-out: wall-clock timeout ...".
  std::string degradation_summary() const;
  /// JSON array of the per-cell reports, byte-identical to
  /// metrics::to_json(reports) when every cell is ok; non-ok cells emit
  /// null in their slot.
  std::string merged_json() const;
  /// Fills `timing` from the outcome counts (failed counts timed-out
  /// cells too), with the wall time since `start` and the jobs used.
  void tally_timing(std::size_t jobs,
                    std::chrono::steady_clock::time_point start);
};

/// Installs the Supervision watchdogs on an engine (RAII-style: construct
/// before Swarm::run, query after). The guard closes over this object, so
/// it must outlive the run and stay at a fixed address.
class CellGuard {
 public:
  CellGuard(sim::SimEngine& engine, const Supervision& supervision);
  CellGuard(const CellGuard&) = delete;
  CellGuard& operator=(const CellGuard&) = delete;

  /// Classification of a finished run: kOk when no limit fired,
  /// kTimedOut for the event budget or wall-clock watchdog, kSkipped when
  /// the sweep-level cancel flag stopped it mid-run.
  CellOutcome::Status status() const;
  /// Human-readable reason for a non-ok status ("" when ok).
  std::string reason() const;

 private:
  sim::SimEngine& engine_;
  double cell_timeout_;
  std::uint64_t event_budget_;
  std::chrono::steady_clock::time_point start_;
  bool timed_out_ = false;
  bool interrupted_ = false;
};

/// One cell's Swarm, RunMetrics and CellGuard, and the driver half of
/// the snapshot protocol (DESIGN §13): the only code that starts or
/// restores a cell, reads or writes the metrics section (id 7), and
/// advances a cell in snapshot-sized chunks. Sweep cells
/// (run_supervised_cell) and coopnet_run's single run both use it. The
/// guard closes over the engine, so a CellRun stays put.
class CellRun {
 public:
  /// A fresh cell: installs the metrics, then schedules the initial
  /// events (Swarm::run's order, so the event sequence numbers match).
  CellRun(const sim::SwarmConfig& config, const Supervision& supervision);
  /// A cell resumed from decoded snapshot sections: start_restored,
  /// install_restored, SwarmCheckpoint::restore, then the metrics load.
  /// Throws sim::CheckpointError when the swarm rejects the sections or
  /// the metrics section is missing, duplicated or malformed.
  CellRun(const sim::SwarmConfig& config, const Supervision& supervision,
          const std::vector<sim::SnapshotSection>& sections);

  /// The swarm sections plus the metrics section; call between chunks.
  std::vector<sim::SnapshotSection> save() const;

  /// Advances to config.max_time. With `every` > 0 it calls
  /// `on_boundary` (take a snapshot) at each multiple of `every`
  /// simulated seconds below max_time, and once more when the cancel
  /// flag stopped the run, so that last snapshot resumes with nothing to
  /// replay. `every` == 0 is one advance_until(max_time). Chunks execute
  /// the same events as one run, so the results are byte-identical.
  void run(double every, const std::function<void()>& on_boundary);

  sim::Swarm& swarm() { return swarm_; }
  /// The metrics collector, for observers that chain on to it.
  metrics::RunMetrics& metrics() { return metrics_; }
  const CellGuard& guard() const { return guard_; }

 private:
  sim::Swarm swarm_;
  metrics::RunMetrics metrics_;
  CellGuard guard_;
};

/// Runs one cell under supervision. Cell errors never escape: every
/// failure mode is folded into the returned CellOutcome. With an active
/// `checkpoint` policy the cell runs chunked with cadenced snapshots
/// (byte-identical results; see CheckpointPolicy) and resumes from its
/// snapshot when the policy provides one.
CellOutcome run_supervised_cell(std::size_t index,
                                const sim::SwarmConfig& config,
                                const Supervision& supervision,
                                const CheckpointPolicy& checkpoint = {});

/// Runs every fully-specified config cell through run_supervised_cell and
/// returns one outcome per cell, in input order. No exception escapes a
/// cell, and the remaining cells always complete (quarantine). With
/// `journal`, each terminal outcome (ok / failed / timed-out) is appended
/// and fsync'd as it lands; with `resume`, journaled cells are skipped and
/// their recorded outcomes merged back in input order. Cells fan out
/// through for_each_cell: jobs == 1 runs inline, jobs > 1 uses a
/// ThreadPool, jobs == 0 means default_jobs(), and results are
/// bit-identical across jobs values. `timing` is filled for every sweep.
SweepResult run_cells(const std::vector<sim::SwarmConfig>& cells,
                      std::size_t jobs, const Supervision& supervision = {},
                      RunJournal* journal = nullptr,
                      const JournalIndex* resume = nullptr,
                      const CheckpointPolicy& checkpoint = {});

/// The sweep flags shared by coopnet_run and the figure/churn benches:
/// --cell-timeout, --event-budget, --journal, --resume, --checkpoint-every.
struct SweepControl {
  Supervision supervision;
  /// Journal to write ("" = none). --resume implies journaling new
  /// outcomes into the same file.
  std::string journal_path;
  /// Journal to resume from ("" = fresh sweep).
  std::string resume_path;
  /// Mid-cell snapshots (--checkpoint-every): files next to the journal,
  /// restored on --resume.
  CheckpointPolicy checkpoint;
};

/// Parses and validates the supervised-sweep flags, rejecting
/// negative/NaN --cell-timeout, zero --event-budget, and a
/// --checkpoint-every without a journal with actionable messages. Throws
/// std::invalid_argument.
SweepControl sweep_control_from_cli(const util::Cli& cli);

/// The flags sweep_control_from_cli reads, for util::Cli::declare.
std::vector<util::CliFlag> sweep_control_flags();

/// Largest --jobs value a sweep accepts. Cells are whole simulations, so
/// more workers than this only costs memory; the cap keeps a typo from
/// asking for thousands of threads.
inline constexpr std::size_t kMaxJobs = 256;

/// Worker count selected by --jobs: absent or 0 means default_jobs(),
/// otherwise 1..kMaxJobs (1 runs every cell on the calling thread; results
/// are identical either way). Throws std::invalid_argument on a negative
/// or oversized value.
std::size_t jobs_from_cli(const util::Cli& cli);

/// The --jobs flag jobs_from_cli reads, for util::Cli::declare.
std::vector<util::CliFlag> jobs_flags();

/// What a journal header and a fleet HELLO pin about a sweep: the cell
/// count, the base seed, and the CRC32 of the cells' concatenated
/// sim::canonical_config_strings. A resume or a fleet worker with another
/// fingerprint runs a different sweep, and merging its results would be
/// garbage.
struct SweepFingerprint {
  std::size_t cells = 0;
  std::uint64_t base_seed = 0;
  std::uint32_t config_crc = 0;

  static SweepFingerprint of(const std::vector<sim::SwarmConfig>& cells,
                             std::uint64_t base_seed);
  bool operator==(const SweepFingerprint&) const = default;
  /// "12 cells with base seed 7 and config CRC 1a2b3c4d".
  std::string describe() const;
};

/// The opened journal/resume pair for one sweep.
struct SweepJournal {
  std::unique_ptr<RunJournal> journal;
  std::unique_ptr<JournalIndex> resume;
};

/// Opens (or resumes) the journal described by `control` for `sweep`. A
/// fresh --journal truncates the file and writes the sweep header;
/// --resume validates the existing header against `sweep` and reopens for
/// append. Throws std::invalid_argument on a header mismatch (journal from
/// a different command line).
SweepJournal open_sweep_journal(const SweepControl& control,
                                const SweepFingerprint& sweep);

}  // namespace coopnet::exp
