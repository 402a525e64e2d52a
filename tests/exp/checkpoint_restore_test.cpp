// Restore equivalence, the checkpoint system's headline property: for
// every incentive mechanism, under a clean transport AND under churn +
// loss, a cell resumed from ANY cadence-boundary snapshot produces a
// report byte-identical to the uninterrupted run. The uninterrupted
// reference is exp::run_scenario (one Swarm::run), not the driver under
// test.
//
// The CLI leg drives the real coopnet_run binary (COOPNET_RUN_BIN, from
// CMake) through interrupt + --restore and extends the byte-identity
// claim to the streamed JSONL trace file.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "exp/supervise.h"
#include "metrics/json.h"
#include "sim/checkpoint.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

namespace coopnet::exp {
namespace {

struct Scenario {
  const char* name;
  sim::FaultConfig faults;
};

std::vector<Scenario> scenarios() {
  sim::FaultConfig hostile = sim::moderate_churn();
  hostile.transfer_loss_rate = 0.05;
  return {{"clean", sim::FaultConfig{}}, {"churn+loss", hostile}};
}

sim::SwarmConfig cell_config(core::Algorithm algo,
                             const sim::FaultConfig& faults) {
  sim::SwarmConfig config = sim::SwarmConfig::small(algo, /*seed=*/17);
  config.n_peers = 20;
  config.file_bytes = 1LL * 1024 * 1024;
  config.faults = faults;
  return config;
}

struct RestoreCell {
  std::string name;
  sim::SwarmConfig config;
};

/// Every mechanism of the paper under every scenario, plus cells that
/// reach state the grid does not: PropShare's bid lists, strategic
/// BitTorrent clients (the previous-round receipt counts), EigenTrust's
/// ledger walk, and whitewashing free-riders (ledger records dropped
/// mid-run).
std::vector<RestoreCell> restore_cells() {
  std::vector<RestoreCell> cells;
  for (const Scenario& scenario : scenarios()) {
    for (core::Algorithm algo : core::kAllAlgorithms) {
      cells.push_back({std::string(core::to_string(algo)) + " / " +
                           scenario.name,
                       cell_config(algo, scenario.faults)});
    }
  }
  const sim::FaultConfig clean;
  cells.push_back({"PropShare / clean",
                   cell_config(core::Algorithm::kPropShare, clean)});
  RestoreCell strategic{"BitTorrent strategic 0.2 / clean",
                        cell_config(core::Algorithm::kBitTorrent, clean)};
  strategic.config.strategic_fraction = 0.2;
  cells.push_back(strategic);
  RestoreCell eigentrust{"Reputation EigenTrust / clean",
                         cell_config(core::Algorithm::kReputation, clean)};
  eigentrust.config.reputation_mode = sim::ReputationMode::kEigenTrust;
  cells.push_back(eigentrust);
  RestoreCell whitewash{"FairTorrent whitewashing free-riders / clean",
                        cell_config(core::Algorithm::kFairTorrent, clean)};
  whitewash.config.free_rider_fraction = 0.2;
  whitewash.config.attack.whitewashing = true;
  whitewash.config.attack.whitewash_interval = 1.0;
  cells.push_back(whitewash);
  return cells;
}

/// Simulated end time of the uninterrupted cell, for picking a snapshot
/// cadence that lands several boundaries strictly mid-run.
double cell_sim_duration(const sim::SwarmConfig& config) {
  sim::Swarm probe(config, strategy::make_strategy(config.algorithm));
  probe.run();
  return probe.engine().now();
}

/// The uninterrupted report bytes, from Swarm::run.
std::string reference_json(const sim::SwarmConfig& config) {
  return metrics::to_json(run_scenario(config));
}

CheckpointPolicy collecting_policy(double every,
                                   std::vector<std::string>* snapshots) {
  CheckpointPolicy policy;
  policy.every = every;
  policy.on_snapshot = [snapshots](std::size_t, const std::string& bytes) {
    snapshots->push_back(bytes);
  };
  return policy;
}

CheckpointPolicy resuming_policy(double every, std::string snapshot) {
  CheckpointPolicy policy;
  policy.every = every;
  policy.snapshot_source = [snapshot = std::move(snapshot)](std::size_t) {
    return snapshot;
  };
  return policy;
}

/// `sections` with its metrics section (id 7) removed, doubled, or cut
/// to 2 bytes.
struct BadMetrics {
  const char* name;
  std::vector<sim::SnapshotSection> sections;
};

std::vector<BadMetrics> bad_metrics(
    const std::vector<sim::SnapshotSection>& sections) {
  std::vector<BadMetrics> out = {{"missing", {}},
                                 {"duplicated", {}},
                                 {"truncated", {}}};
  for (const sim::SnapshotSection& s : sections) {
    if (s.id != sim::kSectionMetrics) {
      for (BadMetrics& bad : out) bad.sections.push_back(s);
      continue;
    }
    out[1].sections.push_back(s);
    out[1].sections.push_back(s);
    out[2].sections.push_back({s.id, s.payload.substr(0, 2)});
  }
  return out;
}

TEST(CheckpointRestore, EveryBoundaryOfEveryMechanismRestoresIdentically) {
  const Supervision supervision;
  for (const RestoreCell& cell : restore_cells()) {
    SCOPED_TRACE(cell.name);
    const sim::SwarmConfig& config = cell.config;

    const std::string ref = reference_json(config);
    const double every = cell_sim_duration(config) / 5.0;
    ASSERT_GT(every, 0.0);

    // The cell without snapshots, and chunked runs, which observe and
    // never perturb: same report bytes.
    const CellOutcome plain = run_supervised_cell(0, config, supervision);
    ASSERT_TRUE(plain.ok()) << plain.error;
    EXPECT_EQ(plain.report_json, ref);
    std::vector<std::string> snaps;
    const CellOutcome chunked = run_supervised_cell(
        0, config, supervision, collecting_policy(every, &snaps));
    ASSERT_TRUE(chunked.ok()) << chunked.error;
    EXPECT_EQ(chunked.report_json, ref)
        << "chunked advance_until diverged from one run()";
    ASSERT_GE(snaps.size(), 2u)
        << "cadence produced too few mid-run snapshots to test";

    // Resume from EVERY boundary; each tail must land on the same
    // bytes the uninterrupted run produced.
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      const CellOutcome resumed = run_supervised_cell(
          0, config, supervision, resuming_policy(every, snaps[i]));
      ASSERT_TRUE(resumed.ok()) << resumed.error;
      EXPECT_TRUE(resumed.resumed_from_checkpoint);
      EXPECT_GT(resumed.restored_events, 0u);
      EXPECT_LT(resumed.events - resumed.restored_events, chunked.events)
          << "a resumed cell must replay only a tail, not everything";
      EXPECT_EQ(resumed.report_json, ref)
          << "restore from boundary " << i << " diverged";
    }
  }
}

TEST(CheckpointRestore, ACorruptSnapshotRestartsTheCellFromScratch) {
  const Supervision supervision;
  const sim::SwarmConfig config =
      cell_config(core::Algorithm::kBitTorrent, sim::FaultConfig{});
  const std::string ref = reference_json(config);
  const double every = cell_sim_duration(config) / 5.0;

  std::vector<std::string> snaps;
  run_supervised_cell(0, config, supervision,
                      collecting_policy(every, &snaps));
  ASSERT_FALSE(snaps.empty());
  std::string corrupt = snaps.front();
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0xFF);
  // Snapshots from older builds: the header's format version (the
  // little-endian u32 after the 8-byte magic, not covered by any CRC)
  // rewritten to 1, 2, 3 and 4.
  ASSERT_EQ(snaps.front()[8], 5) << "current format version moved";
  std::vector<std::string> rejected = {corrupt};
  for (const char version : {1, 2, 3, 4}) {
    std::string old = snaps.front();
    old[8] = version;
    rejected.push_back(old);
  }
  // Well-framed snapshots whose metrics section is missing, doubled, or
  // cut to 2 bytes: without the metrics the restored run would report
  // only its tail.
  for (const BadMetrics& bad :
       bad_metrics(sim::decode_snapshot(config, snaps.front()))) {
    rejected.push_back(sim::encode_snapshot(config, bad.sections));
  }

  // "Never wrong, only slower": the rejected snapshot is dropped, the
  // cell restarts fresh, and the result is still byte-identical.
  for (const std::string& bad : rejected) {
    const CellOutcome outcome = run_supervised_cell(
        0, config, supervision, resuming_policy(every, bad));
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_FALSE(outcome.resumed_from_checkpoint);
    EXPECT_EQ(outcome.report_json, ref);
  }
}

TEST(CheckpointRestore, RestoringACellRejectsABadMetricsSection) {
  const sim::SwarmConfig config =
      cell_config(core::Algorithm::kBitTorrent, sim::FaultConfig{});
  std::vector<std::string> snaps;
  run_supervised_cell(
      0, config, Supervision{},
      collecting_policy(cell_sim_duration(config) / 5.0, &snaps));
  ASSERT_FALSE(snaps.empty());
  const std::vector<sim::SnapshotSection> sections =
      sim::decode_snapshot(config, snaps.front());
  EXPECT_NO_THROW(CellRun(config, Supervision{}, sections));
  for (const BadMetrics& bad : bad_metrics(sections)) {
    SCOPED_TRACE(bad.name);
    try {
      CellRun cell(config, Supervision{}, bad.sections);
      FAIL() << "restored a snapshot with a bad metrics section";
    } catch (const sim::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("metrics section"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointRestore, ACancelledCellLeavesAFinalSnapshotThatResumes) {
  const sim::SwarmConfig config =
      cell_config(core::Algorithm::kFairTorrent, scenarios()[1].faults);
  const std::string ref = reference_json(config);
  const double every = cell_sim_duration(config) / 2.0;

  // The flag is up before the cell starts, so the guard stops it at its
  // first tick, well before the first cadence boundary.
  const std::atomic<bool> cancel{true};
  Supervision cancelled;
  cancelled.cancel = &cancel;
  cancelled.guard_every = 64;
  std::vector<std::string> snaps;
  const CellOutcome stopped = run_supervised_cell(
      0, config, cancelled, collecting_policy(every, &snaps));
  EXPECT_EQ(stopped.status, CellOutcome::Status::kSkipped) << stopped.error;
  EXPECT_EQ(stopped.events, cancelled.guard_every);
  ASSERT_EQ(snaps.size(), 1u) << "expected exactly the final snapshot";

  const CellOutcome resumed = run_supervised_cell(
      0, config, Supervision{}, resuming_policy(every, snaps.front()));
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  EXPECT_EQ(resumed.restored_events, cancelled.guard_every);
  EXPECT_EQ(resumed.report_json, ref);
}

// ---------------------------------------------------------------------
// CLI leg: interrupt + restore through the real binary, trace included.

/// A fresh directory under /tmp, removed with everything in it when the
/// test ends, also when an ASSERT returns early.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const char* prefix) {
    std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// Empty when mkdtemp failed.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// fork/exec with stdout/stderr discarded; returns the pid.
pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // Quiet child: the table/summary output is irrelevant here.
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

int run_binary(const std::vector<std::string>& args) {
  return wait_exit_code(spawn(args));
}

std::vector<std::string> single_run_args(const std::string& json_out,
                                         const std::string& trace_out,
                                         const char* n = "60") {
  return {COOPNET_RUN_BIN, "--algo",      "T-Chain",  "--n",
          n,               "--file-mb",   "8",        "--seed",
          "3",             "--max-time",  "2000",     "--churn",
          "moderate",      "--loss",      "0.05",     "--json-out",
          json_out,        "--trace-out", trace_out};
}

TEST(CheckpointRestore, CliInterruptAndRestoreReproduceReportAndTrace) {
  const ScopedTempDir tmp("coopnet_ckpt_cli");
  ASSERT_FALSE(tmp.path().empty());
  const std::string& dir = tmp.path();

  // Uninterrupted reference run.
  ASSERT_EQ(run_binary(single_run_args(dir + "/ref.json",
                                       dir + "/ref.trace")),
            0);

  // Interrupted run: the event budget stops the cell mid-flight (exit 3)
  // after several cadenced snapshots have been written.
  auto interrupted = single_run_args(dir + "/run.json", dir + "/run.trace");
  for (const char* extra : {"--checkpoint-every", "5", "--checkpoint"}) {
    interrupted.push_back(extra);
  }
  interrupted.push_back(dir + "/cell.ckpt");
  auto resumed = interrupted;  // same flags, swap the budget for --restore
  interrupted.push_back("--event-budget");
  interrupted.push_back("6000");
  ASSERT_EQ(run_binary(interrupted), 3)
      << "the event budget should interrupt the run mid-cell";
  ASSERT_FALSE(read_file(dir + "/cell.ckpt").empty());

  resumed.push_back("--restore");
  resumed.push_back(dir + "/cell.ckpt");
  ASSERT_EQ(run_binary(resumed), 0);

  const std::string ref_json = read_file(dir + "/ref.json");
  const std::string ref_trace = read_file(dir + "/ref.trace");
  ASSERT_FALSE(ref_json.empty());
  ASSERT_FALSE(ref_trace.empty());
  EXPECT_EQ(read_file(dir + "/run.json"), ref_json)
      << "restored report diverged from the uninterrupted run";
  EXPECT_EQ(read_file(dir + "/run.trace"), ref_trace)
      << "restored trace bytes diverged from the uninterrupted run";
}

TEST(CheckpointRestore, CliSigtermLeavesASnapshotThatRestoresReportAndTrace) {
  const ScopedTempDir tmp("coopnet_ckpt_sigterm");
  ASSERT_FALSE(tmp.path().empty());
  const std::string& dir = tmp.path();
  const std::string ckpt = dir + "/cell.ckpt";

  ASSERT_EQ(run_binary(single_run_args(dir + "/ref.json",
                                       dir + "/ref.trace", "200")),
            0);

  auto args = single_run_args(dir + "/run.json", dir + "/run.trace", "200");
  for (const char* extra : {"--checkpoint-every", "5", "--checkpoint"}) {
    args.push_back(extra);
  }
  args.push_back(ckpt);
  const pid_t victim = spawn(args);
  ASSERT_GT(victim, 0);
  // Wait for the first cadence snapshot, then freeze the run so the
  // SIGTERM lands mid-cell rather than after a fast finish.
  struct stat st{};
  for (int i = 0; i < 5000 && ::stat(ckpt.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(victim, SIGSTOP);
  ::kill(victim, SIGTERM);
  ::kill(victim, SIGCONT);
  const int code = wait_exit_code(victim);
  // Graceful preemption exits 128+15 after a final snapshot; a run that
  // finished before the signal landed exits 0 and prunes its snapshot.
  ASSERT_TRUE(code == 143 || code == 0) << "exit code " << code;
  if (code == 143) {
    // The final snapshot is taken where the run stopped: its trace
    // section, the container's last 8 bytes (a little-endian u64),
    // records exactly the bytes the interrupted run streamed.
    const std::string snapshot = read_file(ckpt);
    ASSERT_GE(snapshot.size(), 8u) << "no final snapshot";
    const std::size_t tail = snapshot.size() - 8;
    std::uint64_t trace_offset = 0;
    for (int i = 7; i >= 0; --i) {
      trace_offset = trace_offset << 8 |
                     static_cast<unsigned char>(snapshot[tail + i]);
    }
    EXPECT_EQ(trace_offset, read_file(dir + "/run.trace").size())
        << "the last snapshot is not the one taken at the interrupt";
    args.push_back("--restore");
    args.push_back(ckpt);
    ASSERT_EQ(run_binary(args), 0);
  }

  EXPECT_EQ(read_file(dir + "/run.json"), read_file(dir + "/ref.json"))
      << "restored report diverged from the uninterrupted run";
  EXPECT_EQ(read_file(dir + "/run.trace"), read_file(dir + "/ref.trace"))
      << "restored trace bytes diverged from the uninterrupted run";
}

}  // namespace
}  // namespace coopnet::exp
