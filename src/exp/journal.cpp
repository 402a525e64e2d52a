#include "exp/journal.h"

#include <unistd.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "metrics/json.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/parse.h"

namespace coopnet::exp {

namespace {

/// Appends the schema-2 integrity field: `{...}` becomes
/// `{...,"crc":N}` where N = crc32 of every byte before the `,"crc"`
/// suffix. The embedded "report" value is escaped, so a literal `"crc":`
/// can never occur inside it and rfind-based verification is unambiguous.
std::string add_record_crc(const std::string& line) {
  const std::string prefix = line.substr(0, line.size() - 1);  // drop '}'
  return prefix + ",\"crc\":" + std::to_string(util::crc32(prefix)) + "}";
}

enum class CrcStatus { kOk, kMissing, kMismatch };

/// Verifies the trailing "crc" field of a complete record line. On
/// kMismatch, `expected` is the stored value and `actual` the recomputed
/// one; on kMissing both are left untouched.
CrcStatus check_record_crc(const std::string& line, std::uint32_t* expected,
                           std::uint32_t* actual) {
  static const std::string kSuffix = ",\"crc\":";
  if (line.empty() || line.back() != '}') return CrcStatus::kMissing;
  const std::size_t pos = line.rfind(kSuffix);
  if (pos == std::string::npos) return CrcStatus::kMissing;
  const std::size_t v = pos + kSuffix.size();
  std::uint64_t stored = 0;
  if (!util::parse_u64(line.substr(v, line.size() - 1 - v), &stored) ||
      stored > 0xFFFFFFFFu) {
    return CrcStatus::kMissing;
  }
  *expected = static_cast<std::uint32_t>(stored);
  *actual = util::crc32(line.data(), pos);
  return *expected == *actual ? CrcStatus::kOk : CrcStatus::kMismatch;
}

std::string render_header_line(const SweepFingerprint& sweep) {
  std::ostringstream os;
  os << "{\"kind\":\"header\",\"schema\":" << kJournalSchemaVersion
     << ",\"cells\":" << sweep.cells << ",\"base_seed\":" << sweep.base_seed
     << ",\"config_crc\":" << sweep.config_crc << "}";
  return add_record_crc(os.str());
}

std::string render_cell_line(const CellOutcome& o) {
  std::ostringstream os;
  os << "{\"kind\":\"cell\",\"index\":" << o.index << ",\"seed\":" << o.seed
     << ",\"algorithm\":\"" << metrics::json_escape(o.algorithm)
     << "\",\"status\":\"" << to_string(o.status) << "\",\"error\":\""
     << metrics::json_escape(o.error)
     << "\",\"wall_s\":" << util::g17(o.wall_seconds)
     << ",\"events\":" << o.events;
  if (o.ok() && o.has_report) {
    const metrics::RunReport& r = o.report;
    os << ",\"compliant_population\":" << r.compliant_population
       << ",\"completions\":" << r.completion_times.size()
       << ",\"bootstraps\":" << r.bootstrap_times.size()
       << ",\"mean_completion\":" << util::g17(r.completion_summary.mean)
       << ",\"median_completion\":" << util::g17(r.completion_summary.median)
       << ",\"completed_fraction\":" << util::g17(r.completed_fraction)
       << ",\"median_bootstrap\":" << util::g17(r.bootstrap_summary.median)
       << ",\"settled_fairness\":" << util::g17(r.settled_fairness)
       << ",\"fairness_F\":" << util::g17(r.final_fairness_F)
       << ",\"susceptibility\":" << util::g17(r.susceptibility)
       // Last on purpose: the value is escaped, so no `"key":` pattern
       // can occur inside it and the field scans above stay unambiguous.
       << ",\"report\":\"" << metrics::json_escape(o.report_json) << "\"";
  }
  os << "}";
  return add_record_crc(os.str());
}

/// Finds `"key":` in a journal line and extracts the raw value token:
/// for strings the *still-escaped* contents between the quotes, for
/// numbers the digits up to the next ',' or '}'.
bool find_field(const std::string& line, const std::string& key,
                std::string* out) {
  const std::string pattern = "\"" + key + "\":";
  const std::size_t pos = line.find(pattern);
  if (pos == std::string::npos) return false;
  std::size_t v = pos + pattern.size();
  if (v >= line.size()) return false;
  if (line[v] == '"') {
    ++v;
    std::string raw;
    while (v < line.size()) {
      const char c = line[v];
      if (c == '\\') {
        if (v + 1 >= line.size()) return false;
        raw += c;
        raw += line[v + 1];
        v += 2;
        continue;
      }
      if (c == '"') {
        *out = std::move(raw);
        return true;
      }
      raw += c;
      ++v;
    }
    return false;  // unterminated string: torn line
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == v) return false;
  *out = line.substr(v, end - v);
  return true;
}

// Strict shared parsers: a hand-edited "index":-1 must be rejected as
// torn, not wrapped to ULLONG_MAX by strtoull. Non-finite doubles stay
// accepted because our own %.17g renderer emits "nan"/"inf" for ratio
// metrics (e.g. susceptibility with a zero denominator).
bool parse_u64(const std::string& raw, std::uint64_t* out) {
  return util::parse_u64(raw, out);
}

bool parse_double(const std::string& raw, double* out) {
  return util::parse_double(raw, out, util::DoubleFormat::kAllowNonFinite);
}

bool parse_cell_line(const std::string& line, JournalEntry* entry) {
  std::string raw;
  std::uint64_t u = 0;
  if (!find_field(line, "index", &raw) || !parse_u64(raw, &u)) return false;
  entry->index = static_cast<std::size_t>(u);
  if (!find_field(line, "seed", &raw) || !parse_u64(raw, &entry->seed)) {
    return false;
  }
  if (!find_field(line, "algorithm", &raw)) return false;
  entry->algorithm = metrics::json_unescape(raw);
  if (!find_field(line, "status", &raw)) return false;
  try {
    entry->status = status_from_string(metrics::json_unescape(raw));
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (!find_field(line, "error", &raw)) return false;
  entry->error = metrics::json_unescape(raw);
  if (!find_field(line, "wall_s", &raw) ||
      !parse_double(raw, &entry->wall_seconds)) {
    return false;
  }
  if (!find_field(line, "events", &raw) ||
      !parse_u64(raw, &entry->events)) {
    return false;
  }
  if (entry->status != CellOutcome::Status::kOk) return true;

  // Ok records additionally carry the scalar metrics and the full report.
  if (!find_field(line, "compliant_population", &raw) ||
      !parse_u64(raw, &u)) {
    return false;
  }
  entry->compliant_population = static_cast<std::size_t>(u);
  if (!find_field(line, "completions", &raw) || !parse_u64(raw, &u)) {
    return false;
  }
  entry->completions = static_cast<std::size_t>(u);
  if (!find_field(line, "bootstraps", &raw) || !parse_u64(raw, &u)) {
    return false;
  }
  entry->bootstraps = static_cast<std::size_t>(u);
  const std::pair<const char*, double*> scalars[] = {
      {"mean_completion", &entry->mean_completion},
      {"median_completion", &entry->median_completion},
      {"completed_fraction", &entry->completed_fraction},
      {"median_bootstrap", &entry->median_bootstrap},
      {"settled_fairness", &entry->settled_fairness},
      {"fairness_F", &entry->fairness_F},
      {"susceptibility", &entry->susceptibility},
  };
  for (const auto& [key, dst] : scalars) {
    if (!find_field(line, key, &raw) || !parse_double(raw, dst)) {
      return false;
    }
  }
  if (!find_field(line, "report", &raw)) return false;
  entry->report_json = metrics::json_unescape(raw);
  return !entry->report_json.empty();
}

}  // namespace

SweepFingerprint SweepFingerprint::of(
    const std::vector<sim::SwarmConfig>& cells, std::uint64_t base_seed) {
  std::uint32_t crc = 0;
  for (const sim::SwarmConfig& cell : cells) {
    crc = util::crc32(sim::canonical_config_string(cell), crc);
  }
  return {cells.size(), base_seed, crc};
}

std::string SweepFingerprint::describe() const {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", config_crc);
  return std::to_string(cells) + " cells with base seed " +
         std::to_string(base_seed) + " and config CRC " + crc;
}

JournalIndex JournalIndex::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open run journal: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();

  // A complete (newline-terminated) record that fails its checksum is
  // mid-file bit rot, not the crash-torn tail the journal format
  // tolerates: every fsync'd write landed whole, so the bytes changed
  // AFTER they were durably written. Merging such a record would put a
  // silently wrong data point in the sweep; reject the whole journal
  // with enough detail to find the damage.
  const auto verify_record_crc = [&path](const std::string& line,
                                         std::size_t line_no) {
    std::uint32_t expected = 0;
    std::uint32_t actual = 0;
    switch (check_record_crc(line, &expected, &actual)) {
      case CrcStatus::kOk:
        return;
      case CrcStatus::kMissing: {
        std::ostringstream os;
        os << "run journal " << path << ": record at line " << line_no
           << " has no \"crc\" field even though the header declares the "
              "checksummed schema; the file was modified after it was "
              "written -- restore it from backup, or delete it and rerun "
              "the sweep fresh (without --resume)";
        throw std::runtime_error(os.str());
      }
      case CrcStatus::kMismatch: {
        std::ostringstream os;
        os << "run journal " << path << ": checksum mismatch at line "
           << line_no << " (stored crc " << expected << ", computed "
           << actual
           << ") -- the record was corrupted on disk after it was "
              "durably written (mid-file bit rot, not a torn tail); "
              "restore the journal from backup, or delete it and rerun "
              "the sweep fresh (without --resume)";
        throw std::runtime_error(os.str());
      }
    }
  };

  JournalIndex index;
  bool header_seen = false;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {
      // No terminating newline: the fsync'd write was cut short. At most
      // one such line exists; drop it.
      ++index.torn_lines_;
      break;
    }
    const std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;

    std::string kind;
    if (!find_field(line, "kind", &kind) || line.back() != '}') {
      ++index.torn_lines_;
      continue;
    }
    if (kind == "header") {
      std::string raw;
      std::uint64_t cells = 0;
      std::uint64_t schema = 0;
      if (!find_field(line, "schema", &raw) || !parse_u64(raw, &schema)) {
        throw std::runtime_error(
            "run journal " + path +
            " has a header with no schema version -- it predates the "
            "versioned record layout; delete it and rerun the sweep fresh "
            "(without --resume)");
      }
      if (schema != kJournalSchemaVersion) {
        std::ostringstream os;
        os << "run journal " << path << " was written with schema version "
           << schema << " but this binary reads version "
           << kJournalSchemaVersion
           << "; the record layouts are incompatible, so resuming would "
              "merge garbage -- finish the sweep with a matching build, or "
              "delete the journal and rerun fresh (without --resume)";
        throw std::runtime_error(os.str());
      }
      // Schema first: a pre-crc journal gets the version-mismatch
      // message (with its remedy), not a confusing "no crc field".
      verify_record_crc(line, line_no);
      std::uint64_t config_crc = 0;
      if (find_field(line, "cells", &raw) && parse_u64(raw, &cells) &&
          find_field(line, "base_seed", &raw) &&
          parse_u64(raw, &index.fingerprint_.base_seed) &&
          find_field(line, "config_crc", &raw) &&
          parse_u64(raw, &config_crc) && config_crc <= 0xFFFFFFFFu) {
        index.fingerprint_.cells = static_cast<std::size_t>(cells);
        index.fingerprint_.config_crc =
            static_cast<std::uint32_t>(config_crc);
        index.schema_ = schema;
        header_seen = true;
      } else {
        ++index.torn_lines_;
      }
    } else if (kind == "cell") {
      verify_record_crc(line, line_no);
      JournalEntry entry;
      if (parse_cell_line(line, &entry)) {
        // A record that parses cleanly but names a cell the header never
        // declared is not a torn line -- it is a journal/sweep mismatch
        // (or corruption the strict parsers could not catch), and quietly
        // dropping or keeping it would merge the wrong data point.
        if (header_seen && entry.index >= index.fingerprint_.cells) {
          std::ostringstream os;
          os << "run journal " << path << " has a record for cell "
             << entry.index << " but its header declares only "
             << index.fingerprint_.cells
             << " cells; the journal does not belong to this sweep -- "
                "check the --journal path, or delete it and rerun fresh "
                "(without --resume)";
          throw std::runtime_error(os.str());
        }
        // Later records win (can only happen if a resumed sweep re-ran a
        // cell whose first record was torn).
        index.entries_[entry.index] = std::move(entry);
      } else {
        ++index.torn_lines_;
      }
    } else {
      ++index.torn_lines_;  // unknown record kind: schema drift
    }
  }
  if (!header_seen) {
    throw std::runtime_error(
        "run journal has no header line (not a coopnet run journal, or "
        "the sweep was killed before the first fsync): " +
        path);
  }
  return index;
}

const JournalEntry* JournalIndex::find(std::size_t index) const {
  const auto it = entries_.find(index);
  return it == entries_.end() ? nullptr : &it->second;
}

RunJournal::RunJournal(const std::string& path, Mode mode) : path_(path) {
  file_ = std::fopen(path.c_str(), mode == Mode::kTruncate ? "wb" : "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open run journal for writing: " + path);
  }
  // Make the journal's directory entry itself durable: write_line fsyncs
  // record data, but without this a crash right after creation could lose
  // the whole (empty or freshly headered) file despite every fsync.
  try {
    util::fsync_parent_dir(path_);
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

RunJournal::~RunJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void RunJournal::write_header(const SweepFingerprint& sweep) {
  std::lock_guard<std::mutex> lock(mu_);
  write_line(render_header_line(sweep));
}

void RunJournal::record(const CellOutcome& outcome) {
  append_record_line(render_cell_line(outcome));
}

void RunJournal::append_record_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  write_line(line);
  ++records_;
}

std::size_t RunJournal::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void RunJournal::write_line(const std::string& line) {
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0 ||
      ::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error("run journal write failed: " + path_);
  }
}

std::string render_cell_record(const CellOutcome& outcome) {
  return render_cell_line(outcome);
}

bool parse_cell_record(const std::string& line, JournalEntry* entry) {
  std::string kind;
  if (line.empty() || line.back() != '}' ||
      !find_field(line, "kind", &kind) || kind != "cell") {
    return false;
  }
  // Wire hardening: a record whose checksum does not verify (bit-flipped
  // in transit or by a buggy peer) is rejected up front, before any field
  // of it can reach the coordinator's journal.
  std::uint32_t expected = 0;
  std::uint32_t actual = 0;
  if (check_record_crc(line, &expected, &actual) != CrcStatus::kOk) {
    return false;
  }
  return parse_cell_line(line, entry);
}

CellOutcome outcome_from_journal(const JournalEntry& entry,
                                 const sim::SwarmConfig& cell) {
  if (entry.seed != cell.seed ||
      entry.algorithm != core::to_string(cell.algorithm)) {
    std::ostringstream os;
    os << "--resume: journal record for cell " << entry.index << " ("
       << entry.algorithm << ", seed " << entry.seed
       << ") does not match this sweep's cell ("
       << core::to_string(cell.algorithm) << ", seed " << cell.seed
       << ") -- the journal was written by a different command line";
    throw std::invalid_argument(os.str());
  }
  CellOutcome out;
  out.status = entry.status;
  out.index = entry.index;
  out.seed = entry.seed;
  out.algorithm = entry.algorithm;
  out.error = entry.error;
  out.wall_seconds = entry.wall_seconds;
  out.events = entry.events;
  out.from_journal = true;
  if (entry.status != CellOutcome::Status::kOk) return out;

  // Scalar-only stub report: exact aggregate metrics, placeholder series.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  metrics::RunReport r;
  r.algorithm = cell.algorithm;
  r.compliant_population = entry.compliant_population;
  r.completion_times.assign(entry.completions, nan);
  r.completion_summary.count = entry.completions;
  r.completion_summary.mean = entry.mean_completion;
  r.completion_summary.median = entry.median_completion;
  r.completed_fraction = entry.completed_fraction;
  r.bootstrap_times.assign(entry.bootstraps, nan);
  r.bootstrap_summary.count = entry.bootstraps;
  r.bootstrap_summary.median = entry.median_bootstrap;
  r.settled_fairness = entry.settled_fairness;
  r.final_fairness_F = entry.fairness_F;
  r.susceptibility = entry.susceptibility;
  out.report = std::move(r);
  out.report_json = entry.report_json;
  out.has_report = true;
  return out;
}

}  // namespace coopnet::exp
