// Fleet worker: connects to the coordinator, leases contiguous cell
// ranges, runs each cell under the regular per-cell supervision
// (watchdog + quarantine, exactly like a local sweep), and streams every
// terminal outcome back as the exact journal record line.
//
// Robustness:
//  - A heartbeat thread PINGs on the WELCOME-advertised cadence, so a
//    long cell never lets the worker's leases expire.
//  - A lost connection (coordinator restart, transient network failure)
//    triggers reconnect under capped-exponential backoff; the worker
//    re-joins with HELLO and keeps going. Cells whose results never
//    reached the coordinator are simply re-leased -- the coordinator's
//    journal is the source of truth.
//  - A fatal ERROR from the coordinator (protocol or sweep-fingerprint
//    mismatch) throws: retrying cannot fix a worker built from the
//    wrong command line.
//  - With checkpoint_every > 0 each cell runs chunked (DESIGN §13): the
//    latest snapshot rides out with the next heartbeat as a CKPT frame,
//    CKPT frames received before a LEASE seed the cell's resume, and a
//    cancel-flag preemption (SIGTERM) ships a final snapshot plus BYE
//    and returns gracefully -- the next lessee continues mid-cell with
//    nothing to replay, byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "exp/supervise.h"
#include "fleet/options.h"
#include "fleet/protocol.h"
#include "sim/config.h"
#include "util/socket.h"

namespace coopnet::fleet {

struct WorkerStats {
  std::size_t cells_run = 0;
  std::size_t leases_received = 0;
  std::size_t reconnects = 0;
  std::size_t waits = 0;  // WAIT frames honoured
  /// Cells continued from a coordinator-shipped snapshot.
  std::size_t cells_resumed = 0;
  /// Events re-executed by resumed cells in THIS process (total events
  /// minus the snapshot's restored baseline) -- the kill/restore CI gate
  /// asserts this is a small fraction of the full cell.
  std::uint64_t events_replayed = 0;
  /// Events the resumed cells inherited from their snapshots.
  std::uint64_t events_restored = 0;
  /// True when run() returned because the cancel flag preempted the
  /// in-flight cell (final snapshot + BYE already sent).
  bool preempted = false;
};

/// Latest mid-cell snapshot awaiting shipment; the cell thread stores,
/// the heartbeat thread drains (newest wins -- skipped intermediates are
/// fine, any snapshot resumes byte-identically).
struct SnapshotOutbox {
  std::mutex mu;
  std::size_t index = 0;
  std::string bytes;
  bool dirty = false;
};

class FleetWorker {
 public:
  /// `cells` must be the same deterministic schedule the coordinator
  /// built (same sweep flags); `supervision` applies per cell, exactly
  /// as in a local run_cells sweep. `checkpoint_every` > 0
  /// (simulated seconds; same value as --checkpoint-every) snapshots
  /// each in-flight cell on that cadence and ships the snapshots to the
  /// coordinator; 0 disables checkpointing (byte-identical results
  /// either way).
  FleetWorker(const std::vector<sim::SwarmConfig>& cells,
              std::uint64_t base_seed, const FleetControl& control,
              const exp::Supervision& supervision,
              double checkpoint_every = 0.0);

  /// Serves until the coordinator says DONE. Throws std::runtime_error
  /// when the coordinator is unreachable past the reconnect budget or
  /// rejects this worker outright (ERROR frame).
  WorkerStats run();

 private:
  /// Thrown internally when the connection drops mid-conversation;
  /// run() catches it and reconnects.
  struct ConnectionLost {};

  void connect_and_join();
  /// Returns true when the coordinator sent DONE (sweep over) or the
  /// cancel flag preempted the worker (stats_.preempted distinguishes);
  /// throws ConnectionLost on socket failure.
  bool serve_connection();
  Frame read_frame(int timeout_ms);
  void send_locked(const std::string& line);
  /// Runs the leased range. Returns false when the cancel flag
  /// preempted a cell mid-lease (final snapshot + BYE already sent).
  bool run_lease(std::size_t first, std::size_t count);
  bool cancelled() const;
  /// Best-effort: sends the outbox's pending snapshot now (preemption
  /// path -- the heartbeat cadence is too slow for a farewell).
  void flush_outbox();

  std::vector<sim::SwarmConfig> cells_;
  exp::SweepFingerprint sweep_;
  FleetControl control_;
  exp::Supervision supervision_;
  double checkpoint_every_ = 0.0;
  util::Socket sock_;
  LineBuffer buf_;
  std::mutex write_mu_;
  double heartbeat_interval_ = 2.0;  // overwritten by WELCOME
  WorkerStats stats_;
  /// Resume bytes shipped by the coordinator (CKPT before LEASE), keyed
  /// by cell index; consumed by the cell that uses them.
  std::map<std::size_t, std::string> inbox_;
  SnapshotOutbox outbox_;
};

}  // namespace coopnet::fleet
