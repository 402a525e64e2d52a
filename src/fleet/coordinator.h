// Fleet coordinator: shards the deterministic cell schedule across TCP
// workers with leases + heartbeats, journals every streamed result
// durably, and merges the sweep bit-identically to a single-machine run.
//
// Life of a sweep (DESIGN.md §9):
//  1. The coordinator and every worker are launched with the SAME sweep
//     command line, so all of them construct the identical cell vector
//     (cell_seed is index-addressed). HELLO carries (cells, base_seed)
//     as a fingerprint and mismatches are rejected, exactly like
//     --resume rejects a journal from a different command line.
//  2. Workers REQUEST leases on contiguous index ranges; cells execute
//     remotely via exp::run_supervised_cell; each terminal outcome
//     streams back as the exact journal record line, which the
//     coordinator fsyncs into its own journal before acknowledging the
//     cell as done (write-ahead: a coordinator crash after the fsync
//     loses nothing; before it, the lease machinery re-runs the cell).
//  3. Worker loss: EOF (SIGKILL closes the socket) releases the leases
//     immediately; a partitioned/hung worker misses heartbeats and its
//     leases expire at the deadline. Either way the unfinished cells
//     return to the pending pool under capped-exponential backoff.
//     Workers running with --checkpoint-every ship mid-cell snapshots
//     (CKPT frames, protocol v2) alongside their heartbeats; the
//     coordinator keeps the newest per cell and replays it to the next
//     lessee, so a lost worker costs one checkpoint cadence of re-run,
//     not the whole cell -- and the merged artifacts stay byte-identical
//     (DESIGN §13).
//  4. A cell that keeps killing workers exhausts max_attempts and is
//     quarantined as failed -- one poisoned cell costs one data point.
//  5. Coordinator restart: relaunch with --resume; the journal seeds
//     the lease table and only unfinished cells are handed out.
//
// serve() returns a SweepResult whose merged_json() and aggregate
// metrics are byte/bit-identical to a local exp::run_cells over the same
// cells (the tests and tools/ci_fleet_kill.sh enforce this).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "exp/journal.h"
#include "exp/supervise.h"
#include "fleet/lease.h"
#include "fleet/options.h"
#include "fleet/protocol.h"
#include "sim/config.h"
#include "util/socket.h"

namespace coopnet::fleet {

/// Progress counters, printed by the bench entry points.
struct CoordinatorStats {
  std::size_t workers_joined = 0;
  std::size_t workers_lost = 0;   // EOF or socket error before DONE
  std::size_t leases_granted = 0;
  std::size_t leases_expired = 0;  // heartbeat/deadline expiries
  std::uint64_t cells_reassigned = 0;
  std::size_t cells_abandoned = 0;  // quarantined after max_attempts
  std::size_t duplicate_results = 0;
  std::size_t snapshots_received = 0;  // CKPT frames accepted from workers
  std::size_t snapshots_shipped = 0;   // CKPT frames sent before a LEASE
};

class FleetCoordinator {
 public:
  /// `journal` receives every accepted record (fsync per record) and
  /// must outlive the coordinator; `resume` (optional) seeds completed
  /// cells from a previous coordinator's journal. The listener binds in
  /// the constructor, so port() is valid immediately (port 0 resolves
  /// to the kernel's pick -- how the tests rendezvous).
  FleetCoordinator(const std::vector<sim::SwarmConfig>& cells,
                   std::uint64_t base_seed, const FleetControl& control,
                   exp::RunJournal* journal,
                   const exp::JournalIndex* resume);
  ~FleetCoordinator();
  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  std::uint16_t port() const;

  /// Serves until every cell is terminal, then returns the merged
  /// result (outcomes in input order, journal-restored -- byte-identical
  /// artifacts to a local supervised run of the same schedule).
  exp::SweepResult serve();

  const CoordinatorStats& stats() const { return stats_; }

 private:
  struct Client;

  double now() const;
  void accept_new_clients();
  void pump_client(Client& client);
  bool handle_frame(Client& client, const Frame& frame);
  void drop_client(std::size_t index, bool lost);
  void answer_request(Client& client);
  bool ingest_result(Client& client, const std::string& record_line);
  void quarantine_abandoned();
  exp::SweepResult merge() const;

  std::vector<sim::SwarmConfig> cells_;
  exp::SweepFingerprint sweep_;
  FleetControl control_;
  exp::RunJournal* journal_;
  LeaseTable table_;
  std::map<std::size_t, exp::JournalEntry> entries_;
  /// Newest mid-cell snapshot per unfinished cell (raw bytes, validated
  /// by the snapshot's own checksums at restore time). Shipped to the
  /// next lessee right before its LEASE frame; erased when the cell's
  /// terminal result lands. Memory stays bounded by (cells in flight) x
  /// (snapshot size) -- finished cells hold nothing.
  std::map<std::size_t, std::string> snapshots_;
  util::TcpListener listener_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t next_client_id_ = 1;
  std::chrono::steady_clock::time_point start_;
  CoordinatorStats stats_;
  std::set<std::uint64_t> productive_workers_;
};

}  // namespace coopnet::fleet
