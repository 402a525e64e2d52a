// Restore equivalence, the checkpoint system's headline property: for
// every incentive mechanism, under a clean transport AND under churn +
// loss, a cell resumed from ANY cadence-boundary snapshot produces a
// report byte-identical to the uninterrupted run.
//
// The CLI leg drives the real coopnet_run binary (COOPNET_RUN_BIN, from
// CMake) through interrupt + --restore and extends the byte-identity
// claim to the streamed JSONL trace file.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/supervise.h"
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

TEST(CheckpointRestore, EveryBoundaryOfEveryMechanismRestoresIdentically) {
  const Supervision supervision;
  for (const RestoreCell& cell : restore_cells()) {
    SCOPED_TRACE(cell.name);
    const sim::SwarmConfig& config = cell.config;

    // Uninterrupted reference: the plain, checkpoint-free path.
    const CellOutcome ref = run_supervised_cell(0, config, supervision);
    ASSERT_TRUE(ref.ok()) << ref.error;
    const double every = cell_sim_duration(config) / 5.0;
    ASSERT_GT(every, 0.0);

    // Chunked runs observe, never perturb: same report bytes.
    std::vector<std::string> snaps;
    const CellOutcome chunked = run_supervised_cell(
        0, config, supervision, collecting_policy(every, &snaps));
    ASSERT_TRUE(chunked.ok()) << chunked.error;
    EXPECT_EQ(chunked.report_json, ref.report_json)
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
      EXPECT_LT(resumed.events - resumed.restored_events, ref.events)
          << "a resumed cell must replay only a tail, not everything";
      EXPECT_EQ(resumed.report_json, ref.report_json)
          << "restore from boundary " << i << " diverged";
    }
  }
}

TEST(CheckpointRestore, ACorruptSnapshotRestartsTheCellFromScratch) {
  const Supervision supervision;
  const sim::SwarmConfig config =
      cell_config(core::Algorithm::kBitTorrent, sim::FaultConfig{});
  const CellOutcome ref = run_supervised_cell(0, config, supervision);
  ASSERT_TRUE(ref.ok()) << ref.error;
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
  // rewritten to 1 and to 2.
  ASSERT_EQ(snaps.front()[8], 3) << "current format version moved";
  std::string version1 = snaps.front();
  version1[8] = 1;
  std::string version2 = snaps.front();
  version2[8] = 2;

  // "Never wrong, only slower": the rejected snapshot is dropped, the
  // cell restarts fresh, and the result is still byte-identical.
  for (const std::string& bad : {corrupt, version1, version2}) {
    const CellOutcome outcome = run_supervised_cell(
        0, config, supervision, resuming_policy(every, bad));
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_FALSE(outcome.resumed_from_checkpoint);
    EXPECT_EQ(outcome.report_json, ref.report_json);
  }
}

// ---------------------------------------------------------------------
// CLI leg: interrupt + restore through the real binary, trace included.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run_binary(const std::vector<std::string>& args) {
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
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

std::vector<std::string> single_run_args(const std::string& json_out,
                                         const std::string& trace_out) {
  return {COOPNET_RUN_BIN, "--algo",      "T-Chain",  "--n",
          "60",            "--file-mb",   "8",        "--seed",
          "3",             "--max-time",  "2000",     "--churn",
          "moderate",      "--loss",      "0.05",     "--json-out",
          json_out,        "--trace-out", trace_out};
}

TEST(CheckpointRestore, CliInterruptAndRestoreReproduceReportAndTrace) {
  char tmpl[] = "/tmp/coopnet_ckpt_cli_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

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

  for (const char* f : {"/ref.json", "/ref.trace", "/run.json",
                        "/run.trace", "/cell.ckpt"}) {
    std::remove((dir + f).c_str());
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace coopnet::exp
