// Crash-safe run journals: an append-only JSONL manifest of completed
// cell outcomes, fsync'd per record, plus the resume index that merges an
// interrupted (even SIGKILLed) sweep back into a new one bit-identically.
//
// Format -- one JSON object per line:
//
//   {"kind":"header","schema":3,"cells":12,"base_seed":7,
//    "config_crc":...,"crc":...}
//   {"kind":"cell","index":3,"seed":...,"algorithm":"BitTorrent",
//    "status":"ok","error":"","wall_s":...,"events":...,
//    "compliant_population":40,"completions":38,"bootstraps":40,
//    "mean_completion":...,"median_completion":...,
//    "completed_fraction":...,"median_bootstrap":...,
//    "settled_fairness":...,"fairness_F":...,"susceptibility":...,
//    "report":"<json_escape of the exact RunReport JSON>","crc":...}
//
// Each append is a single buffered write + fflush + fsync, so a crash at
// any instant leaves at most one torn trailing line, which load_journal
// skips (a record counts only once its closing '}' landed). Scalar metric
// fields round-trip doubles at %.17g, so aggregates recomputed over a
// resumed sweep are bit-identical to the uninterrupted run; the "report"
// field preserves the exact rendered JSON bytes for merged artifacts. The
// "report" key is escaped (every inner quote becomes \"), so the
// scalar-field scans can never match keys inside the embedded report.
//
// The header pins the sweep's SweepFingerprint (schema 3 added the
// config CRC), so --resume refuses a journal written by another command
// line. The final "crc" field (schema 2) is the util::crc32 of every line byte
// before the `,"crc"` suffix. A torn TRAILING line (the crash case --
// fwrite cut short, so the newline never landed) is still tolerated and
// dropped; but a complete, newline-terminated line whose checksum does
// not match is mid-file bit-rot, and the loader rejects the journal with
// the file, record line, and expected/actual checksum instead of parsing
// garbage into the merge.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "exp/supervise.h"
#include "sim/config.h"

namespace coopnet::exp {

/// Journal record-layout version, written in (and enforced against) the
/// header's "schema" field. Bump when a record field changes meaning or
/// layout; loaders reject any other version with an actionable error
/// instead of silently merging incompatible records.
inline constexpr std::uint64_t kJournalSchemaVersion = 3;


/// One journaled cell record, as parsed back from disk.
struct JournalEntry {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::string algorithm;
  CellOutcome::Status status = CellOutcome::Status::kFailed;
  std::string error;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  // Scalar metrics (present only for ok records), %.17g round-tripped.
  std::size_t compliant_population = 0;
  std::size_t completions = 0;
  std::size_t bootstraps = 0;
  double mean_completion = 0.0;
  double median_completion = 0.0;
  double completed_fraction = 0.0;
  double median_bootstrap = 0.0;
  double settled_fairness = -1.0;
  double fairness_F = -1.0;
  double susceptibility = 0.0;
  /// Exact metrics::to_json(report) bytes of the original run ("" for
  /// non-ok records).
  std::string report_json;
};

/// Parsed journal: header metadata plus an index of cell records.
class JournalIndex {
 public:
  /// Loads and parses `path`. Tolerant of a torn trailing line (the
  /// SIGKILL case); throws std::runtime_error when the file is missing
  /// or has no valid header.
  static JournalIndex load(const std::string& path);

  /// The journaled record for cell `index`, or nullptr.
  const JournalEntry* find(std::size_t index) const;
  std::size_t size() const { return entries_.size(); }
  /// The sweep recorded in the header, for resume validation.
  const SweepFingerprint& fingerprint() const { return fingerprint_; }
  /// Schema version the journal was written with (always
  /// kJournalSchemaVersion -- load() rejects anything else).
  std::uint64_t schema() const { return schema_; }
  /// Lines dropped as torn/unparseable (at most 1 after a clean kill).
  std::size_t torn_lines() const { return torn_lines_; }

 private:
  std::map<std::size_t, JournalEntry> entries_;
  SweepFingerprint fingerprint_;
  std::uint64_t schema_ = kJournalSchemaVersion;
  std::size_t torn_lines_ = 0;
};

/// Append-only, fsync-per-record outcome writer. Thread-safe: workers of
/// a parallel sweep record through one shared journal.
class RunJournal {
 public:
  enum class Mode {
    kTruncate,  // fresh sweep: start an empty journal
    kAppend,    // resumed sweep: keep the existing records
  };

  /// Opens `path`; throws std::runtime_error on failure.
  RunJournal(const std::string& path, Mode mode);
  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Writes the sweep's header line (fresh journals only).
  void write_header(const SweepFingerprint& sweep);

  /// Appends one terminal outcome, durably (write + flush + fsync before
  /// returning). Throws std::runtime_error on I/O failure.
  void record(const CellOutcome& outcome);

  /// Appends one pre-rendered record line (no trailing newline) with the
  /// same durability as record(). The fleet coordinator uses this to
  /// persist cell records streamed from workers byte-for-byte; callers
  /// must pass lines produced by render_cell_record (validated with
  /// parse_cell_record) so the journal stays loadable.
  void append_record_line(const std::string& line);

  const std::string& path() const { return path_; }
  std::size_t records_written() const;

 private:
  void write_line(const std::string& line);

  std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  std::size_t records_ = 0;
};

/// Reconstructs a CellOutcome from a journal entry, validating that the
/// entry matches the cell it is standing in for (seed + algorithm; throws
/// std::invalid_argument on a mismatch -- the journal belongs to a
/// different sweep). Ok entries get a scalar-only stub RunReport: the
/// aggregate metrics are exact (%.17g round-trip) and the series arrays
/// are placeholder NaNs sized to the recorded counts, so tables and
/// replication aggregates over a resumed sweep match the uninterrupted
/// run bit-for-bit while full series live only in `report_json`.
CellOutcome outcome_from_journal(const JournalEntry& entry,
                                 const sim::SwarmConfig& cell);

/// Renders the exact JSONL record line (no trailing newline) that
/// RunJournal::record would append for `outcome`. The fleet protocol
/// ships these lines verbatim from worker to coordinator, so one framing
/// implementation serves disk and wire.
std::string render_cell_record(const CellOutcome& outcome);

/// Parses one journal cell record line into `entry`. Returns false on a
/// torn or malformed line (never throws) -- the single-line counterpart
/// of JournalIndex::load's tolerant per-line scan.
bool parse_cell_record(const std::string& line, JournalEntry* entry);

}  // namespace coopnet::exp
