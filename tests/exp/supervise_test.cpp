// Supervised sweeps: quarantine, watchdogs, and the determinism contract.
//
// The load-bearing properties: one poisoned or livelocked cell costs
// exactly its own data point (every other cell completes with a full
// report); an event-budget cancellation lands after *exactly* the
// budgeted number of events; and supervision that never fires leaves the
// results byte-identical to an unsupervised run.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/journal.h"
#include "exp/runner.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "util/cli.h"

namespace coopnet::exp {
namespace {

sim::SwarmConfig small_cell(core::Algorithm algo, std::uint64_t seed) {
  auto config = sim::SwarmConfig::small(algo, seed);
  config.n_peers = 30;
  config.file_bytes = 1LL * 1024 * 1024;
  return config;
}

std::vector<sim::SwarmConfig> mixed_cells(std::size_t n) {
  std::vector<sim::SwarmConfig> cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back(small_cell(i % 2 == 0 ? core::Algorithm::kBitTorrent
                                          : core::Algorithm::kAltruism,
                               cell_seed(3, i)));
  }
  return cells;
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(RunCellsSupervised, PoisonCellIsQuarantinedAtEveryJobsLevel) {
  auto cells = mixed_cells(4);
  cells[1].n_peers = 0;  // SwarmConfig::validate() rejects this

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const auto sweep = run_cells(cells, jobs, Supervision{});
    ASSERT_EQ(sweep.outcomes.size(), 4u) << "jobs=" << jobs;
    EXPECT_EQ(sweep.outcomes[1].status, CellOutcome::Status::kFailed);
    EXPECT_FALSE(sweep.outcomes[1].error.empty());
    EXPECT_FALSE(sweep.outcomes[1].has_report);
    for (const std::size_t i : {0u, 2u, 3u}) {
      EXPECT_TRUE(sweep.outcomes[i].ok()) << "cell " << i;
      EXPECT_TRUE(sweep.outcomes[i].has_report);
      EXPECT_EQ(sweep.outcomes[i].report_json,
                metrics::to_json(sweep.outcomes[i].report));
    }
    EXPECT_FALSE(sweep.complete());
    EXPECT_EQ(sweep.count(CellOutcome::Status::kOk), 3u);
    EXPECT_EQ(sweep.timing.completed, 3u);
    EXPECT_EQ(sweep.timing.failed, 1u);
    EXPECT_NE(sweep.merged_json().find("null"), std::string::npos);
    EXPECT_NE(sweep.degradation_summary().find("cell 1"), std::string::npos);
  }
}

TEST(RunCellsSupervised, QuarantinedSweepIsDeterministicAcrossJobs) {
  auto cells = mixed_cells(5);
  cells[2].n_peers = 0;
  const auto sequential = run_cells(cells, 1, Supervision{});
  const auto parallel = run_cells(cells, 4, Supervision{});
  EXPECT_EQ(sequential.merged_json(), parallel.merged_json());
}

TEST(RunCellsSupervised, EventBudgetCancelsAfterExactlyNEvents) {
  const std::vector<sim::SwarmConfig> cells = {
      small_cell(core::Algorithm::kBitTorrent, 42)};
  Supervision supervision;
  supervision.event_budget = 500;

  const auto first = run_cells(cells, 1, supervision);
  ASSERT_EQ(first.outcomes.size(), 1u);
  EXPECT_EQ(first.outcomes[0].status, CellOutcome::Status::kTimedOut);
  EXPECT_EQ(first.outcomes[0].events, 500u);
  EXPECT_NE(first.outcomes[0].error.find("event budget"), std::string::npos);
  EXPECT_EQ(first.timing.failed, 1u);

  // Deterministic: the same budget cancels at the same point every time.
  const auto second = run_cells(cells, 1, supervision);
  EXPECT_EQ(second.outcomes[0].events, 500u);
  EXPECT_EQ(second.outcomes[0].status, first.outcomes[0].status);
  EXPECT_EQ(second.outcomes[0].error, first.outcomes[0].error);
}

TEST(RunCellsSupervised, WallClockWatchdogCancelsAndReportsTimeout) {
  // A timeout far below one guard interval's wall time: the first guard
  // tick cancels the run. (Where it lands is timing-dependent; the
  // classification and diagnostics are not.)
  const std::vector<sim::SwarmConfig> cells = {
      small_cell(core::Algorithm::kBitTorrent, 7)};
  Supervision supervision;
  supervision.cell_timeout = 1e-9;
  supervision.guard_every = 1;

  const auto sweep = run_cells(cells, 1, supervision);
  ASSERT_EQ(sweep.outcomes.size(), 1u);
  EXPECT_EQ(sweep.outcomes[0].status, CellOutcome::Status::kTimedOut);
  EXPECT_NE(sweep.outcomes[0].error.find("wall-clock timeout"),
            std::string::npos);
  EXPECT_NE(sweep.outcomes[0].error.find("--cell-timeout"),
            std::string::npos);
  EXPECT_FALSE(sweep.complete());
}

TEST(RunCellsSupervised, UntriggeredSupervisionIsByteIdentical) {
  // Generous limits that never fire: every cell must produce exactly the
  // bytes of an unsupervised run_scenario (the guard runs on the cold
  // path, schedules no events, and draws no RNG).
  const auto cells = mixed_cells(4);
  Supervision supervision;
  supervision.cell_timeout = 3600.0;
  supervision.event_budget = 1'000'000'000;
  supervision.guard_every = 64;

  std::vector<metrics::RunReport> plain;
  for (const auto& cell : cells) plain.push_back(run_scenario(cell));
  const auto sweep = run_cells(cells, 4, supervision);
  ASSERT_TRUE(sweep.complete());
  EXPECT_EQ(sweep.merged_json(), metrics::to_json(plain));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(sweep.outcomes[i].report_json, metrics::to_json(plain[i]))
        << "cell " << i;
  }
}

TEST(RunCellsSupervised, PreCancelledSweepSkipsEveryCellAndJournalsNothing) {
  const auto cells = mixed_cells(3);
  std::atomic<bool> cancel{true};
  Supervision supervision;
  supervision.cancel = &cancel;

  const std::string path = ::testing::TempDir() + "supervise_skip.jsonl";
  RunJournal journal(path, RunJournal::Mode::kTruncate);
  journal.write_header(SweepFingerprint::of(cells, 3));
  const auto sweep = run_cells(cells, 2, supervision, &journal, nullptr);

  EXPECT_EQ(sweep.count(CellOutcome::Status::kSkipped), cells.size());
  EXPECT_EQ(sweep.timing.skipped, cells.size());
  for (const auto& o : sweep.outcomes) {
    EXPECT_FALSE(o.has_report);
    EXPECT_NE(o.error.find("interrupted"), std::string::npos);
  }
  // Skipped cells must re-run on resume, so none of them were journaled.
  EXPECT_EQ(journal.records_written(), 0u);
  EXPECT_EQ(sweep.merged_json(), "[\nnull,\nnull,\nnull\n]");
}

TEST(RunCells, FirstFailureStillFillsTiming) {
  // A failing cell costs only itself: its timing is accounted, the other
  // cells complete, and reports() throws with its diagnostic.
  auto cells = mixed_cells(3);
  cells[0].n_peers = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const auto sweep = run_cells(cells, jobs);
    EXPECT_EQ(sweep.timing.cells, 3u) << "jobs=" << jobs;
    EXPECT_EQ(sweep.timing.jobs, jobs);
    EXPECT_GT(sweep.timing.wall_seconds, 0.0);
    EXPECT_EQ(sweep.timing.failed, 1u);
    EXPECT_EQ(sweep.timing.completed, 2u);
    EXPECT_EQ(sweep.timing.skipped, 0u);
    EXPECT_NE(sweep.timing.to_string().find("failed"), std::string::npos);
    try {
      sweep.reports();
      ADD_FAILURE() << "reports() of a degraded sweep must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cell 0"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(sweep.outcomes[0].error),
                std::string::npos);
    }
  }
}

TEST(JobsFromCli, KeepsDefaultsAndRejectsOutOfRangeValues) {
  EXPECT_EQ(jobs_from_cli(make_cli({})), default_jobs());
  EXPECT_EQ(jobs_from_cli(make_cli({"--jobs", "0"})), default_jobs());
  EXPECT_EQ(jobs_from_cli(make_cli({"--jobs", "3"})), 3u);
  const std::string max = std::to_string(kMaxJobs);
  EXPECT_EQ(jobs_from_cli(make_cli({"--jobs", max.c_str()})), kMaxJobs);

  // Parse level only: no pool is ever started with these values.
  const auto message_of = [](const char* value) {
    try {
      jobs_from_cli(make_cli({"--jobs", value}));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string over = std::to_string(kMaxJobs + 1);
  for (const std::string& bad : {std::string("-1"), over,
                                 std::string("4000")}) {
    const std::string message = message_of(bad.c_str());
    EXPECT_NE(message.find("--jobs"), std::string::npos) << bad;
    EXPECT_NE(message.find(bad), std::string::npos) << bad;
    EXPECT_NE(message.find(max), std::string::npos) << bad;
  }
}

TEST(Supervision, ValidateRejectsNonsenseKnobs) {
  Supervision negative;
  negative.cell_timeout = -1.0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  Supervision nan_timeout;
  nan_timeout.cell_timeout = std::nan("");
  EXPECT_THROW(nan_timeout.validate(), std::invalid_argument);

  Supervision zero_guard;
  zero_guard.guard_every = 0;
  EXPECT_THROW(zero_guard.validate(), std::invalid_argument);

  EXPECT_NO_THROW(Supervision{}.validate());
  EXPECT_FALSE(Supervision{}.any());
}

TEST(SweepControlFromCli, ParsesAndValidatesTheSharedFlags) {
  const auto none = sweep_control_from_cli(make_cli({}));
  EXPECT_FALSE(none.supervision.any());
  EXPECT_TRUE(none.journal_path.empty());
  EXPECT_TRUE(none.resume_path.empty());
  EXPECT_FALSE(none.checkpoint.active());

  const auto control = sweep_control_from_cli(
      make_cli({"--cell-timeout", "2.5", "--event-budget", "100000",
                "--journal", "j.jsonl"}));
  EXPECT_TRUE(control.supervision.any());
  EXPECT_DOUBLE_EQ(control.supervision.cell_timeout, 2.5);
  EXPECT_EQ(control.supervision.event_budget, 100000u);
  EXPECT_EQ(control.journal_path, "j.jsonl");

  // --resume implies journaling into the same file.
  const auto resumed =
      sweep_control_from_cli(make_cli({"--resume", "j.jsonl"}));
  EXPECT_EQ(resumed.journal_path, "j.jsonl");
  EXPECT_EQ(resumed.resume_path, "j.jsonl");
}

TEST(SweepControlFromCli, RejectsBadValuesWithActionableMessages) {
  const auto message_of = [](std::initializer_list<const char*> args) {
    try {
      sweep_control_from_cli(make_cli(args));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  EXPECT_NE(message_of({"--cell-timeout", "-3"}).find("--cell-timeout"),
            std::string::npos);
  EXPECT_NE(message_of({"--cell-timeout", "-3"}).find("-3"),
            std::string::npos);
  // "nan" is now rejected one layer down, by the hardened Cli::get_double
  // (it never parses), rather than by supervise's own finiteness check.
  EXPECT_NE(message_of({"--cell-timeout", "nan"}).find("cell-timeout"),
            std::string::npos);
  EXPECT_NE(message_of({"--event-budget", "0"}).find("--event-budget"),
            std::string::npos);
  EXPECT_NE(message_of({"--journal"}).find("path"), std::string::npos);
  EXPECT_NE(message_of({"--resume"}).find("journal"), std::string::npos);
  EXPECT_NE(
      message_of({"--journal", "a.jsonl", "--resume", "b.jsonl"})
          .find("same file"),
      std::string::npos);
}

TEST(CellOutcomeStatus, StringsRoundTrip) {
  for (const auto status :
       {CellOutcome::Status::kOk, CellOutcome::Status::kFailed,
        CellOutcome::Status::kTimedOut, CellOutcome::Status::kSkipped}) {
    EXPECT_EQ(status_from_string(to_string(status)), status);
  }
  EXPECT_THROW(status_from_string("exploded"), std::invalid_argument);
}

}  // namespace
}  // namespace coopnet::exp
