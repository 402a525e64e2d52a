// Crash-safe run journals: fsync'd JSONL records, torn-line tolerance,
// and the bit-identical --resume merge.
//
// The core guarantee under test: truncate a journal anywhere (the
// SIGKILL case), resume the sweep, and the merged JSON and replication
// aggregates are byte/bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/journal.h"
#include "exp/replication.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "util/crc32.h"

namespace coopnet::exp {
namespace {

// Appends the schema-2 integrity field to a hand-crafted record line,
// exactly as the journal writer does: crc32 over every byte before the
// `,"crc"` suffix.
std::string with_crc(const std::string& line) {
  const std::string prefix = line.substr(0, line.size() - 1);
  return prefix + ",\"crc\":" + std::to_string(util::crc32(prefix)) + "}";
}

sim::SwarmConfig small_cell(core::Algorithm algo, std::uint64_t seed) {
  auto config = sim::SwarmConfig::small(algo, seed);
  config.n_peers = 30;
  config.file_bytes = 1LL * 1024 * 1024;
  return config;
}

std::vector<sim::SwarmConfig> replication_cells(std::size_t reps,
                                                std::uint64_t seed0) {
  std::vector<sim::SwarmConfig> cells;
  for (std::size_t i = 0; i < reps; ++i) {
    cells.push_back(small_cell(core::Algorithm::kBitTorrent,
                               cell_seed(seed0, i)));
  }
  return cells;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Keeps the first `keep_lines` newline-terminated lines of `path`.
void truncate_to_lines(const std::string& path, std::size_t keep_lines) {
  const std::string content = read_file(path);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < keep_lines; ++i) {
    pos = content.find('\n', pos);
    ASSERT_NE(pos, std::string::npos);
    ++pos;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content.substr(0, pos);
}

TEST(RunJournal, RoundTripsOutcomesExactly) {
  const auto cells = replication_cells(3, 7);
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 7));
    const auto sweep =
        run_cells(cells, 1, Supervision{}, &journal, nullptr);
    ASSERT_TRUE(sweep.complete());
    EXPECT_EQ(journal.records_written(), cells.size());

    const auto index = JournalIndex::load(path);
    EXPECT_EQ(index.size(), cells.size());
    EXPECT_EQ(index.fingerprint(), SweepFingerprint::of(cells, 7));
    EXPECT_EQ(index.torn_lines(), 0u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const JournalEntry* entry = index.find(i);
      ASSERT_NE(entry, nullptr) << "cell " << i;
      EXPECT_EQ(entry->seed, cells[i].seed);
      EXPECT_EQ(entry->algorithm, "BitTorrent");
      EXPECT_EQ(entry->status, CellOutcome::Status::kOk);
      // The exact rendered bytes survive the escape/unescape round trip.
      EXPECT_EQ(entry->report_json, sweep.outcomes[i].report_json);
      // Scalars round-trip bit-exactly at %.17g.
      const auto& r = sweep.outcomes[i].report;
      EXPECT_EQ(entry->compliant_population, r.compliant_population);
      EXPECT_EQ(entry->completions, r.completion_times.size());
      EXPECT_EQ(entry->mean_completion, r.completion_summary.mean);
      EXPECT_EQ(entry->median_completion, r.completion_summary.median);
      EXPECT_EQ(entry->completed_fraction, r.completed_fraction);
      EXPECT_EQ(entry->median_bootstrap, r.bootstrap_summary.median);
      EXPECT_EQ(entry->settled_fairness, r.settled_fairness);
      EXPECT_EQ(entry->fairness_F, r.final_fairness_F);
      EXPECT_EQ(entry->susceptibility, r.susceptibility);
    }
  }
  std::remove(path.c_str());
}

TEST(RunJournal, NonOkOutcomesJournalTheirDiagnostics) {
  auto cells = replication_cells(2, 9);
  cells[1].n_peers = 0;  // poison
  const std::string path = temp_path("journal_failures.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 9));
    run_cells(cells, 1, Supervision{}, &journal, nullptr);
  }
  const auto index = JournalIndex::load(path);
  const JournalEntry* failed = index.find(1);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->status, CellOutcome::Status::kFailed);
  EXPECT_FALSE(failed->error.empty());
  EXPECT_TRUE(failed->report_json.empty());

  // A failed record resumes as a failed outcome, not a silent gap.
  const auto outcome = outcome_from_journal(*failed, cells[1]);
  EXPECT_EQ(outcome.status, CellOutcome::Status::kFailed);
  EXPECT_TRUE(outcome.from_journal);
  EXPECT_FALSE(outcome.has_report);
  std::remove(path.c_str());
}

TEST(RunJournal, ResumeAfterTruncationMergesByteIdentically) {
  const auto cells = replication_cells(4, 11);
  const std::string path = temp_path("journal_resume.jsonl");

  // Uninterrupted reference.
  const auto reference =
      run_cells(cells, 1, Supervision{}, nullptr, nullptr);
  ASSERT_TRUE(reference.complete());

  // Full journaled run, then simulate a crash after two records landed.
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 11));
    run_cells(cells, 1, Supervision{}, &journal, nullptr);
  }
  truncate_to_lines(path, 3);  // header + 2 cells

  const auto index = JournalIndex::load(path);
  EXPECT_EQ(index.size(), 2u);
  RunJournal journal(path, RunJournal::Mode::kAppend);
  const auto resumed =
      run_cells(cells, 2, Supervision{}, &journal, &index);

  EXPECT_EQ(resumed.resumed(), 2u);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.merged_json(), reference.merged_json());
  // The resumed journal is whole again: a second resume has all 4 cells.
  EXPECT_EQ(JournalIndex::load(path).size(), cells.size());
  std::remove(path.c_str());
}

TEST(RunJournal, ToleratesATornTrailingLine) {
  const auto cells = replication_cells(2, 13);
  const std::string path = temp_path("journal_torn.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 13));
    run_cells(cells, 1, Supervision{}, &journal, nullptr);
  }
  // A SIGKILL mid-write leaves a partial record with no trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << R"({"kind":"cell","index":1,"seed":12)";
  }
  const auto index = JournalIndex::load(path);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.torn_lines(), 1u);
}

// Mid-file bit rot is NOT the torn-tail crash case: every complete
// (newline-terminated) line was durably written, so a checksum mismatch
// means the bytes changed afterwards. The loader must reject the journal
// with the file, the damaged line, and both checksums -- never silently
// merge or drop the record.
TEST(RunJournal, LoadRejectsMidFileBitRotActionably) {
  const auto cells = replication_cells(3, 31);
  const std::string path = temp_path("journal_bitrot.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 31));
    run_cells(cells, 1, Supervision{}, &journal, nullptr);
  }
  const std::string whole = read_file(path);

  // Flip one digit inside the SECOND record (a fully landed, mid-file
  // line) -- its own crc still parses, but no longer matches the bytes.
  const std::size_t second = whole.find('\n') + 1;
  const std::size_t at = whole.find("\"seed\":", second) + 7;
  std::string rotted = whole;
  rotted[at] = rotted[at] == '1' ? '2' : '1';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rotted;
  }
  try {
    JournalIndex::load(path);
    FAIL() << "a bit-rotted mid-file record must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("stored crc"), std::string::npos) << what;
    EXPECT_NE(what.find("computed"), std::string::npos) << what;
  }

  // Deleting the crc field from a complete line is equally rejected.
  std::string stripped = whole;
  const std::size_t crc_pos = stripped.find(",\"crc\":", second);
  ASSERT_NE(crc_pos, std::string::npos);
  const std::size_t close = stripped.find('}', crc_pos);
  stripped.erase(crc_pos, close - crc_pos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << stripped;
  }
  try {
    JournalIndex::load(path);
    FAIL() << "a record missing its crc field must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no \"crc\" field"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(RunJournal, LoadRejectsASchemaVersionMismatchActionably) {
  const std::string path = temp_path("journal_schema.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"({"kind":"header","schema":99,"cells":2,"base_seed":7})"
        << "\n";
  }
  try {
    JournalIndex::load(path);
    FAIL() << "schema 99 must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // The error names both versions and tells the user what to do.
    EXPECT_NE(what.find("schema version 99"), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(kJournalSchemaVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rerun"), std::string::npos) << what;
  }

  // A header with no schema field at all (pre-versioning layout) is also
  // rejected, not silently merged.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"({"kind":"header","cells":2,"base_seed":7})" << "\n";
  }
  EXPECT_THROW(JournalIndex::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RunJournal, LoadRejectsAnOutOfRangeCellIndexActionably) {
  // A record that parses cleanly but names a cell beyond the header's
  // count is a journal/sweep mismatch, not a torn line: silently keeping
  // it would merge a foreign data point, dropping it would hide the
  // mixup. (A negative "index":-1 no longer reaches here at all -- the
  // strict parser refuses to wrap it to ULLONG_MAX.)
  const std::string path = temp_path("journal_oob_index.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << with_crc(
               R"({"kind":"header","schema":3,"cells":2,"base_seed":7,"config_crc":0})")
        << "\n"
        << with_crc(
               R"({"kind":"cell","index":5,"seed":9,"algorithm":"bt",)"
               R"("status":"failed","error":"x","wall_s":0.5,"events":12})")
        << "\n";
  }
  try {
    JournalIndex::load(path);
    FAIL() << "cell index 5 of a 2-cell sweep must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 5"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
    EXPECT_NE(what.find("--journal"), std::string::npos) << what;
  }

  // The same line with "index":-1 is unparseable (strict u64), so it
  // counts as torn rather than wrapping to a huge index.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << with_crc(
               R"({"kind":"header","schema":3,"cells":2,"base_seed":7,"config_crc":0})")
        << "\n"
        << with_crc(
               R"({"kind":"cell","index":-1,"seed":9,"algorithm":"bt",)"
               R"("status":"failed","error":"x","wall_s":0.5,"events":12})")
        << "\n";
  }
  const auto index = JournalIndex::load(path);
  EXPECT_EQ(index.torn_lines(), 1u);
  EXPECT_EQ(index.find(std::size_t(-1)), nullptr);
  std::remove(path.c_str());
}

TEST(RunJournal, SchemaMismatchRejectsResumeEndToEnd) {
  const std::string path = temp_path("journal_schema_resume.jsonl");
  {
    // Schema 1 (the pre-checksum layout) against a schema-3 reader.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"({"kind":"header","schema":1,"cells":4,"base_seed":11})"
        << "\n";
  }
  SweepControl control;
  control.resume_path = path;
  control.journal_path = path;
  EXPECT_THROW(open_sweep_journal(control, SweepFingerprint{4, 11, 0}),
               std::runtime_error);
  std::remove(path.c_str());
}

// Adversarial truncation: cut a valid journal at EVERY byte offset and
// require the loader to (a) never crash or throw anything unexpected,
// (b) recover exactly the records whose full line (newline included)
// survived the cut, and (c) throw the documented runtime_error only
// while the header line is still incomplete.
TEST(RunJournal, LoaderRecoversAllCompleteRecordsAtEveryTruncation) {
  const auto cells = replication_cells(3, 23);
  const std::string path = temp_path("journal_everycut.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 23));
    const auto sweep =
        run_cells(cells, 1, Supervision{}, &journal, nullptr);
    ASSERT_TRUE(sweep.complete());
  }
  const std::string whole = read_file(path);
  ASSERT_FALSE(whole.empty());

  // Line-end offsets: a record is recoverable once its '\n' landed.
  std::vector<std::size_t> line_ends;
  for (std::size_t i = 0; i < whole.size(); ++i) {
    if (whole[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), cells.size() + 1);  // header + cells

  const std::string cut_path = temp_path("journal_everycut_prefix.jsonl");
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out << whole.substr(0, cut);
    }
    std::size_t complete_lines = 0;
    while (complete_lines < line_ends.size() &&
           line_ends[complete_lines] <= cut) {
      ++complete_lines;
    }
    if (complete_lines == 0) {
      // Header not yet durable: the documented "no header" error, never
      // anything else.
      EXPECT_THROW(JournalIndex::load(cut_path), std::runtime_error)
          << "cut at byte " << cut;
      continue;
    }
    JournalIndex index = JournalIndex::load(cut_path);
    EXPECT_EQ(index.size(), complete_lines - 1) << "cut at byte " << cut;
    // Whatever was recovered must be the exact journaled record.
    for (std::size_t i = 0; i + 1 < complete_lines; ++i) {
      const JournalEntry* entry = index.find(i);
      ASSERT_NE(entry, nullptr) << "cut at byte " << cut << ", cell " << i;
      EXPECT_EQ(entry->seed, cells[i].seed);
      EXPECT_EQ(entry->status, CellOutcome::Status::kOk);
      EXPECT_FALSE(entry->report_json.empty());
    }
    // At most the one torn trailing line.
    EXPECT_LE(index.torn_lines(), 1u) << "cut at byte " << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(RunJournal, CellRecordRenderParseRoundTripsOnOneLine) {
  const auto cells = replication_cells(1, 29);
  const auto sweep =
      run_cells(cells, 1, Supervision{}, nullptr, nullptr);
  ASSERT_TRUE(sweep.complete());

  const std::string line = render_cell_record(sweep.outcomes[0]);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  JournalEntry entry;
  ASSERT_TRUE(parse_cell_record(line, &entry));
  EXPECT_EQ(entry.index, 0u);
  EXPECT_EQ(entry.seed, cells[0].seed);
  EXPECT_EQ(entry.report_json, sweep.outcomes[0].report_json);

  // Malformed inputs report false, never throw.
  EXPECT_FALSE(parse_cell_record("", &entry));
  EXPECT_FALSE(parse_cell_record("RESULT garbage", &entry));
  EXPECT_FALSE(parse_cell_record(line.substr(0, line.size() / 2), &entry));
  EXPECT_FALSE(parse_cell_record(
      R"({"kind":"header","schema":3,"cells":1,"base_seed":1,"config_crc":0})", &entry));
  // A single bit flipped anywhere in an otherwise well-formed record
  // fails the checksum and is rejected before any field is trusted.
  {
    std::string flipped = line;
    const std::size_t at = flipped.find("\"seed\":") + 7;
    flipped[at] = flipped[at] == '1' ? '2' : '1';
    EXPECT_FALSE(parse_cell_record(flipped, &entry));
  }
  // A record missing its crc field entirely is also rejected.
  {
    const std::size_t pos = line.rfind(",\"crc\":");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_FALSE(parse_cell_record(line.substr(0, pos) + "}", &entry));
  }

  // An appended raw line is indistinguishable from a record() write.
  const std::string path = temp_path("journal_rawline.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 29));
    journal.append_record_line(line);
    EXPECT_EQ(journal.records_written(), 1u);
  }
  const auto index = JournalIndex::load(path);
  ASSERT_EQ(index.size(), 1u);
  EXPECT_EQ(index.find(0)->report_json, sweep.outcomes[0].report_json);
  std::remove(path.c_str());
}

TEST(RunJournal, LoadRejectsMissingOrHeaderlessFiles) {
  EXPECT_THROW(JournalIndex::load(temp_path("does_not_exist.jsonl")),
               std::runtime_error);

  const std::string path = temp_path("journal_headerless.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a journal\n";
  }
  EXPECT_THROW(JournalIndex::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RunJournal, ResumeRejectsRecordsFromADifferentSweep) {
  const auto cells = replication_cells(2, 17);
  const std::string path = temp_path("journal_mismatch.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 17));
    run_cells(cells, 1, Supervision{}, &journal, nullptr);
  }
  const auto index = JournalIndex::load(path);
  const JournalEntry* entry = index.find(0);
  ASSERT_NE(entry, nullptr);

  // Wrong seed: this journal record belongs to a different schedule.
  auto wrong_seed = cells[0];
  wrong_seed.seed += 1;
  EXPECT_THROW(outcome_from_journal(*entry, wrong_seed),
               std::invalid_argument);

  // Wrong algorithm, same seed.
  auto wrong_algo = cells[0];
  wrong_algo.algorithm = core::Algorithm::kAltruism;
  EXPECT_THROW(outcome_from_journal(*entry, wrong_algo),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(OpenSweepJournal, RejectsAHeaderFromADifferentCommandLine) {
  const auto cells = replication_cells(4, 11);
  const std::string path = temp_path("journal_header_mismatch.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(SweepFingerprint::of(cells, 11));
  }
  SweepControl control;
  control.resume_path = path;
  control.journal_path = path;
  // The same cells run under another --loss: only the config CRC differs.
  auto lossy = cells;
  for (auto& cell : lossy) cell.faults.transfer_loss_rate = 0.1;
  EXPECT_NO_THROW(open_sweep_journal(control, SweepFingerprint::of(cells, 11)));
  EXPECT_THROW(
      open_sweep_journal(control,
                         SweepFingerprint::of(replication_cells(5, 11), 11)),
      std::invalid_argument);
  EXPECT_THROW(open_sweep_journal(control, SweepFingerprint::of(cells, 12)),
               std::invalid_argument);
  try {
    open_sweep_journal(control, SweepFingerprint::of(lossy, 11));
    FAIL() << "a journal of another config must not resume";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config CRC"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(RunReplicatedSupervised, ResumedAggregatesAreBitIdentical) {
  const auto config = small_cell(core::Algorithm::kBitTorrent, 21);
  const std::size_t reps = 4;

  const auto reference =
      run_replicated(config, reps, /*seed0=*/21, /*jobs=*/1);
  ASSERT_TRUE(reference.sweep.complete())
      << reference.sweep.degradation_summary();

  const std::string path = temp_path("journal_aggregate.jsonl");
  {
    RunJournal journal(path, RunJournal::Mode::kTruncate);
    journal.write_header(
        SweepFingerprint::of(exp::replication_cells(config, reps, 21), 21));
    run_replicated(config, reps, 21, 1, Supervision{}, &journal, nullptr);
  }
  truncate_to_lines(path, 3);  // header + 2 replications

  const auto index = JournalIndex::load(path);
  RunJournal journal(path, RunJournal::Mode::kAppend);
  const auto resumed =
      run_replicated(config, reps, 21, 2, Supervision{}, &journal, &index);

  ASSERT_TRUE(resumed.sweep.complete());
  EXPECT_EQ(resumed.sweep.resumed(), 2u);
  EXPECT_EQ(resumed.sweep.merged_json(), metrics::to_json(reference.runs));
  // Aggregates recomputed over the journal stubs match bit-for-bit: the
  // scalars were stored at %.17g.
  EXPECT_EQ(resumed.completed_fraction.mean,
            reference.completed_fraction.mean);
  EXPECT_EQ(resumed.mean_completion.mean,
            reference.mean_completion.mean);
  EXPECT_EQ(resumed.mean_completion.ci95_half_width,
            reference.mean_completion.ci95_half_width);
  EXPECT_EQ(resumed.median_bootstrap.mean,
            reference.median_bootstrap.mean);
  EXPECT_EQ(resumed.settled_fairness.mean,
            reference.settled_fairness.mean);
  EXPECT_EQ(resumed.fairness_F.mean, reference.fairness_F.mean);
  EXPECT_EQ(resumed.susceptibility.mean,
            reference.susceptibility.mean);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coopnet::exp
