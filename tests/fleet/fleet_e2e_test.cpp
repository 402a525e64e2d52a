// End-to-end fleet sweeps over localhost: an in-process coordinator and
// worker threads exercising the full lease/heartbeat/journal/merge path.
//
// The headline guarantee under test: a fleet sweep's merged JSON and
// replication aggregates are byte-identical to a single-machine
// run_cells sweep of the same deterministic cell schedule --
// including when a worker vanishes mid-lease (SIGKILL-equivalent: its
// socket just closes) and when the coordinator restarts from its own
// journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.h"
#include "exp/schedule.h"
#include "exp/supervise.h"
#include "fleet/coordinator.h"
#include "fleet/protocol.h"
#include "fleet/worker.h"
#include "util/socket.h"

namespace coopnet::fleet {
namespace {

std::vector<sim::SwarmConfig> small_cells(std::size_t count,
                                          std::uint64_t base_seed) {
  std::vector<sim::SwarmConfig> cells;
  for (std::size_t i = 0; i < count; ++i) {
    auto config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent,
                                          exp::cell_seed(base_seed, i));
    config.n_peers = 25;
    config.file_bytes = 1LL * 1024 * 1024;
    cells.push_back(config);
  }
  return cells;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

FleetControl coordinator_control() {
  FleetControl control;
  control.role = FleetControl::Role::kCoordinator;
  control.port = 0;  // ephemeral: the test reads coordinator.port()
  control.lease.cells_per_lease = 2;
  control.lease.lease_duration = 10.0;
  control.lease.reassign_backoff = util::Backoff{0.05, 2.0, 0.2};
  control.heartbeat_interval = 0.5;
  return control;
}

FleetControl worker_control(std::uint16_t port, const std::string& name) {
  FleetControl control;
  control.role = FleetControl::Role::kWorker;
  control.host = "127.0.0.1";
  control.port = port;
  control.worker_name = name;
  control.reconnect = util::Backoff{0.05, 2.0, 0.5};
  control.max_connect_attempts = 10;
  return control;
}

/// A worker that joins, takes one lease, and vanishes without delivering
/// results -- the in-process stand-in for SIGKILL (the kernel closing the
/// socket is exactly what the coordinator observes either way).
void run_vanishing_worker(std::uint16_t port,
                          const exp::SweepFingerprint& sweep) {
  util::Socket sock = util::tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(send_frame(sock, render_hello("vanisher", sweep.cells,
                                            sweep.base_seed,
                                            sweep.config_crc)));
  LineBuffer buf;
  std::string line;
  const auto read_line = [&]() {
    while (!buf.next_line(&line)) {
      ASSERT_TRUE(sock.wait_readable(10'000));
      char chunk[4096];
      const ::ssize_t n = sock.recv_some(chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      buf.feed(chunk, static_cast<std::size_t>(n));
    }
  };
  read_line();  // WELCOME
  ASSERT_TRUE(send_frame(sock, render_request()));
  read_line();  // LEASE (the sweep has just started; nothing is done yet)
  Frame frame;
  std::string error;
  ASSERT_TRUE(parse_frame(line, &frame, &error)) << error;
  ASSERT_EQ(frame.type, Frame::Type::kLease);
  sock.close();  // vanish mid-lease, results never delivered
}

TEST(FleetE2eTest, FleetSweepIsByteIdenticalToLocalSweep) {
  const std::uint64_t base_seed = 11;
  const auto cells = small_cells(8, base_seed);
  const exp::Supervision supervision;

  // Reference: uninterrupted single-machine supervised sweep.
  const exp::SweepResult reference =
      exp::run_cells(cells, 2, supervision);

  const std::string journal_path = temp_path("fleet_e2e.jsonl");
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
  journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
  FleetCoordinator coordinator(cells, base_seed, coordinator_control(),
                               &journal, nullptr);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });
  std::thread w1([&] {
    FleetWorker worker(cells, base_seed, worker_control(port, "w1"),
                       supervision);
    worker.run();
  });
  std::thread w2([&] {
    FleetWorker worker(cells, base_seed, worker_control(port, "w2"),
                       supervision);
    worker.run();
  });
  w1.join();
  w2.join();
  serve.join();

  EXPECT_TRUE(fleet_result.complete());
  EXPECT_EQ(fleet_result.merged_json(), reference.merged_json())
      << "fleet merge must be byte-identical to the local sweep";
  EXPECT_EQ(coordinator.stats().workers_joined, 2u);
  EXPECT_EQ(coordinator.stats().workers_lost, 0u);

  // The coordinator's journal is itself a valid resume source covering
  // every cell.
  const exp::JournalIndex index = exp::JournalIndex::load(journal_path);
  EXPECT_EQ(index.size(), cells.size());
}

TEST(FleetE2eTest, VanishedWorkerCellsAreReassignedAndMergeStaysExact) {
  const std::uint64_t base_seed = 23;
  const auto cells = small_cells(6, base_seed);
  const exp::Supervision supervision;
  const exp::SweepResult reference =
      exp::run_cells(cells, 1, supervision);

  const std::string journal_path = temp_path("fleet_e2e_kill.jsonl");
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
  journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
  FleetCoordinator coordinator(cells, base_seed, coordinator_control(),
                               &journal, nullptr);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });

  // The vanishing worker grabs the first lease and dies holding it;
  // the good worker (started after it got its lease) must pick up the
  // re-queued cells.
  run_vanishing_worker(port, exp::SweepFingerprint::of(cells, base_seed));
  FleetWorker worker(cells, base_seed, worker_control(port, "survivor"),
                     supervision);
  const WorkerStats stats = worker.run();
  serve.join();

  EXPECT_TRUE(fleet_result.complete())
      << fleet_result.degradation_summary();
  EXPECT_EQ(fleet_result.merged_json(), reference.merged_json())
      << "a lost worker must not change the merged artifact bytes";
  EXPECT_EQ(stats.cells_run, cells.size())
      << "the survivor re-ran the vanished worker's cells";
  EXPECT_GE(coordinator.stats().workers_lost, 1u);
  EXPECT_GE(coordinator.stats().cells_reassigned, 1u);
}

TEST(FleetE2eTest, CoordinatorRestartResumesFromItsOwnJournal) {
  const std::uint64_t base_seed = 31;
  const auto cells = small_cells(6, base_seed);
  const exp::Supervision supervision;
  const exp::SweepResult reference =
      exp::run_cells(cells, 1, supervision);

  const std::string journal_path = temp_path("fleet_e2e_restart.jsonl");
  // "First life" of the coordinator: half the sweep lands in the journal
  // before the process dies (simulated by just writing the records the
  // way the coordinator would have).
  {
    exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
    journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
    for (std::size_t i = 0; i < 3; ++i) {
      journal.append_record_line(exp::render_cell_record(
          exp::run_supervised_cell(i, cells[i], supervision)));
    }
  }

  // Restart: load the journal, reopen for append, serve the remainder.
  const exp::JournalIndex resume = exp::JournalIndex::load(journal_path);
  ASSERT_EQ(resume.size(), 3u);
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kAppend);
  FleetCoordinator coordinator(cells, base_seed, coordinator_control(),
                               &journal, &resume);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });
  FleetWorker worker(cells, base_seed, worker_control(port, "resumer"),
                     supervision);
  const WorkerStats stats = worker.run();
  serve.join();

  EXPECT_EQ(stats.cells_run, 3u)
      << "journaled cells must not be re-executed after a restart";
  EXPECT_TRUE(fleet_result.complete());
  EXPECT_EQ(fleet_result.merged_json(), reference.merged_json())
      << "restart + resume must still merge byte-identically";
}

TEST(FleetE2eTest, FingerprintMismatchIsRejectedFatally) {
  const std::uint64_t base_seed = 47;
  const auto cells = small_cells(2, base_seed);
  const exp::Supervision supervision;

  const std::string journal_path = temp_path("fleet_e2e_reject.jsonl");
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
  journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
  FleetCoordinator coordinator(cells, base_seed, coordinator_control(),
                               &journal, nullptr);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });

  // A worker built from a different command line (wrong base seed, or
  // the same cells and seed under another --file-mb) must be turned away
  // with an ERROR, not fed cells it would compute differently.
  const auto wrong_cells = small_cells(2, base_seed + 1);
  FleetWorker impostor(wrong_cells, base_seed + 1,
                       worker_control(port, "impostor"), supervision);
  EXPECT_THROW(impostor.run(), std::runtime_error);
  auto bigger_file = cells;
  for (auto& cell : bigger_file) cell.file_bytes *= 2;
  FleetWorker reconfigured(bigger_file, base_seed,
                           worker_control(port, "reconfigured"), supervision);
  try {
    reconfigured.run();
    ADD_FAILURE() << "a worker with another config must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config CRC"), std::string::npos)
        << e.what();
  }

  FleetWorker worker(cells, base_seed, worker_control(port, "legit"),
                     supervision);
  worker.run();
  serve.join();

  EXPECT_TRUE(fleet_result.complete());
  EXPECT_EQ(coordinator.stats().workers_joined, 1u)
      << "the impostors never count as joined";
}

TEST(FleetE2eTest, PoisonedCellIsQuarantinedAfterMaxAttempts) {
  const std::uint64_t base_seed = 53;
  const auto cells = small_cells(4, base_seed);
  const exp::Supervision supervision;

  FleetControl control = coordinator_control();
  control.lease.cells_per_lease = 2;
  control.lease.max_attempts = 1;  // one lost lease is enough to abandon

  const std::string journal_path = temp_path("fleet_e2e_poison.jsonl");
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
  journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
  FleetCoordinator coordinator(cells, base_seed, control, &journal, nullptr);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });

  // The vanisher takes cells [0,2) to its grave; with max_attempts == 1
  // they are quarantined as failed instead of ever re-running -- the
  // fleet-wide "one poisoned cell costs one data point" contract.
  run_vanishing_worker(port, exp::SweepFingerprint::of(cells, base_seed));
  FleetWorker worker(cells, base_seed, worker_control(port, "survivor"),
                     supervision);
  const WorkerStats stats = worker.run();
  serve.join();

  EXPECT_FALSE(fleet_result.complete());
  EXPECT_EQ(fleet_result.count(exp::CellOutcome::Status::kFailed), 2u);
  EXPECT_EQ(fleet_result.count(exp::CellOutcome::Status::kOk), 2u);
  EXPECT_EQ(stats.cells_run, 2u);
  EXPECT_EQ(coordinator.stats().cells_abandoned, 2u);
  // The quarantined outcomes are journaled like any other terminal
  // outcome: a restart would not resurrect them.
  const exp::JournalIndex index = exp::JournalIndex::load(journal_path);
  EXPECT_EQ(index.size(), cells.size());
  EXPECT_NE(fleet_result.outcomes[0].error.find("abandoned"),
            std::string::npos);
}

TEST(FleetE2eTest, PreemptedWorkersSnapshotResumesMidCellOnTheNextWorker) {
  const std::uint64_t base_seed = 61;
  // One deliberately long cell (~a second of wall clock): the preemption
  // below must land mid-cell with a wide margin, so the worker's final
  // snapshot -- not a fresh start -- is what the next lessee builds on.
  std::vector<sim::SwarmConfig> cells;
  {
    auto config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent,
                                          exp::cell_seed(base_seed, 0));
    config.n_peers = 1500;
    config.file_bytes = 64LL * 1024 * 1024;
    // The fleet resume is under test here, not the invariant auditor (the
    // sim suite covers that): an audit build checks this cell sparsely,
    // not at every event of each of its three runs.
    config.audit_every = 10000;
    cells.push_back(config);
  }
  const exp::Supervision supervision;
  const exp::SweepResult reference =
      exp::run_cells(cells, 1, supervision);
  const double checkpoint_every = 200.0;  // simulated seconds

  const std::string journal_path = temp_path("fleet_e2e_ckpt.jsonl");
  exp::RunJournal journal(journal_path, exp::RunJournal::Mode::kTruncate);
  journal.write_header(exp::SweepFingerprint::of(cells, base_seed));
  FleetControl control = coordinator_control();
  control.heartbeat_interval = 0.1;  // snapshots ride the heartbeats
  FleetCoordinator coordinator(cells, base_seed, control, &journal,
                               nullptr);
  const std::uint16_t port = coordinator.port();

  exp::SweepResult fleet_result;
  std::thread serve([&] { fleet_result = coordinator.serve(); });

  // Worker 1 starts the cell, then the cancel flag (the SIGTERM handler's
  // stand-in) preempts it mid-run; it ships a final snapshot with BYE and
  // returns gracefully.
  std::atomic<bool> cancel{false};
  exp::Supervision preemptible = supervision;
  preemptible.cancel = &cancel;
  WorkerStats preempted_stats;
  std::thread w1([&] {
    FleetWorker worker(cells, base_seed, worker_control(port, "victim"),
                       preemptible, checkpoint_every);
    preempted_stats = worker.run();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cancel.store(true);
  w1.join();
  ASSERT_TRUE(preempted_stats.preempted)
      << "the cancel flag should have landed mid-cell (cell too fast?)";
  EXPECT_EQ(preempted_stats.cells_run, 0u);

  // Worker 2 leases the same cell; the coordinator hands it the stored
  // snapshot first, so it replays only the tail -- and the merged
  // artifact is still byte-identical to the uninterrupted local sweep.
  FleetWorker resumer(cells, base_seed, worker_control(port, "resumer"),
                      supervision, checkpoint_every);
  const WorkerStats resumed_stats = resumer.run();
  serve.join();

  EXPECT_TRUE(fleet_result.complete())
      << fleet_result.degradation_summary();
  EXPECT_EQ(fleet_result.merged_json(), reference.merged_json())
      << "a mid-cell resume must not change the merged artifact bytes";
  EXPECT_EQ(resumed_stats.cells_run, 1u);
  EXPECT_EQ(resumed_stats.cells_resumed, 1u)
      << "the resumer should have continued from the shipped snapshot";
  EXPECT_GT(resumed_stats.events_restored, 0u);
  EXPECT_LT(resumed_stats.events_replayed, reference.outcomes[0].events)
      << "a resumed cell replays a tail, not the whole cell";
  EXPECT_GE(coordinator.stats().snapshots_received, 1u);
  EXPECT_GE(coordinator.stats().snapshots_shipped, 1u);
}

}  // namespace
}  // namespace coopnet::fleet
