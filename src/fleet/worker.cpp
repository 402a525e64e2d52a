#include "fleet/worker.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/journal.h"

namespace coopnet::fleet {

namespace {

constexpr std::size_t kRecvChunk = 16 * 1024;

/// Background PING sender for one connection. The coordinator treats any
/// frame as a heartbeat, but only this thread guarantees cadence while
/// the main thread is deep inside a cell run. When the outbox holds a
/// fresh mid-cell snapshot, it ships as a CKPT frame right before the
/// PING -- snapshots ride the heartbeat cadence, so a slow cell's
/// progress reaches the coordinator while the cell is still running.
/// Send failures are ignored here -- the main thread observes the broken
/// socket on its next send/recv and owns the reconnect.
class HeartbeatPulse {
 public:
  HeartbeatPulse(util::Socket& sock, std::mutex& write_mu, double interval,
                 SnapshotOutbox* outbox)
      : sock_(sock), write_mu_(write_mu), interval_(interval),
        outbox_(outbox) {
    thread_ = std::thread([this] { loop(); });
  }
  ~HeartbeatPulse() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HeartbeatPulse(const HeartbeatPulse&) = delete;
  HeartbeatPulse& operator=(const HeartbeatPulse&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    const auto period = std::chrono::duration<double>(interval_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      // Drain the outbox outside the write lock: the hex encode of a
      // multi-MB snapshot must not stall a concurrent RESULT send.
      std::size_t index = 0;
      std::string snapshot;
      if (outbox_ != nullptr) {
        std::lock_guard<std::mutex> olock(outbox_->mu);
        if (outbox_->dirty) {
          index = outbox_->index;
          snapshot = outbox_->bytes;
          outbox_->dirty = false;
        }
      }
      const std::string ckpt_line =
          snapshot.empty() ? std::string() : render_ckpt(index, snapshot);
      std::lock_guard<std::mutex> wlock(write_mu_);
      if (!ckpt_line.empty()) send_frame(sock_, ckpt_line);
      send_frame(sock_, render_ping());
    }
  }

  util::Socket& sock_;
  std::mutex& write_mu_;
  double interval_;
  SnapshotOutbox* outbox_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

FleetWorker::FleetWorker(const std::vector<sim::SwarmConfig>& cells,
                         std::uint64_t base_seed,
                         const FleetControl& control,
                         const exp::Supervision& supervision,
                         double checkpoint_every)
    : cells_(cells),
      sweep_(exp::SweepFingerprint::of(cells, base_seed)),
      control_(control),
      supervision_(supervision),
      checkpoint_every_(checkpoint_every) {
  control_.validate();
  supervision_.validate();
  if (!std::isfinite(checkpoint_every_) || checkpoint_every_ < 0.0) {
    throw std::invalid_argument(
        "fleet worker: checkpoint_every must be a finite number of "
        "simulated seconds >= 0 (0 disables checkpointing)");
  }
  if (cells_.empty()) {
    throw std::invalid_argument("fleet worker: the sweep has no cells");
  }
}

WorkerStats FleetWorker::run() {
  connect_and_join();
  for (;;) {
    try {
      // Hold a heartbeat pulse for the lifetime of this connection so
      // leases survive arbitrarily slow cells.
      HeartbeatPulse pulse(sock_, write_mu_, heartbeat_interval_, &outbox_);
      if (serve_connection()) return stats_;
    } catch (const ConnectionLost&) {
      if (cancelled()) {
        // Preempted while the coordinator is unreachable: the farewell
        // snapshot cannot be delivered; exit gracefully anyway (the
        // lease expiry re-runs the cell from its last shipped snapshot).
        stats_.preempted = true;
        return stats_;
      }
      ++stats_.reconnects;
      buf_ = LineBuffer();  // drop any half-received line
      connect_and_join();
    }
  }
}

void FleetWorker::connect_and_join() {
  // Capped-exponential reconnect: transient coordinator absence
  // (restart-in-progress) is survivable; a genuinely dead coordinator
  // exhausts the budget and surfaces as an actionable error.
  std::string last_error;
  for (int attempt = 0; attempt < control_.max_connect_attempts; ++attempt) {
    if (attempt > 0) {
      const double delay = control_.reconnect.delay_for(attempt - 1);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    try {
      sock_ = util::tcp_connect(control_.host, control_.port);
    } catch (const std::exception& e) {
      last_error = e.what();
      continue;
    }
    buf_ = LineBuffer();
    if (!send_frame(sock_,
                    render_hello(control_.worker_name, sweep_.cells,
                                 sweep_.base_seed, sweep_.config_crc))) {
      last_error = "connection dropped while sending HELLO";
      sock_.close();
      continue;
    }
    Frame reply;
    try {
      reply = read_frame(/*timeout_ms=*/30'000);
    } catch (const ConnectionLost&) {
      last_error = "connection dropped while waiting for WELCOME";
      sock_.close();
      continue;
    }
    if (reply.type == Frame::Type::kError) {
      // Fatal by construction: a fingerprint/protocol mismatch will not
      // go away on retry.
      throw std::runtime_error("fleet worker rejected by coordinator: " +
                               reply.name);
    }
    if (reply.type != Frame::Type::kWelcome) {
      last_error = std::string("expected WELCOME, got ") +
                   to_string(reply.type);
      sock_.close();
      continue;
    }
    heartbeat_interval_ = reply.heartbeat_s > 0.0 ? reply.heartbeat_s
                                                  : heartbeat_interval_;
    return;
  }
  throw std::runtime_error(
      "fleet worker: could not reach coordinator at " + control_.host + ":" +
      std::to_string(control_.port) + " after " +
      std::to_string(control_.max_connect_attempts) +
      " attempts (last error: " + last_error +
      ") -- is the coordinator running, and is --fleet-connect pointing at "
      "its --fleet-listen endpoint?");
}

bool FleetWorker::serve_connection() {
  for (;;) {
    if (cancelled()) {
      // Preempted between cells: nothing in flight, just part cleanly.
      flush_outbox();
      std::lock_guard<std::mutex> lock(write_mu_);
      send_frame(sock_, render_bye());
      stats_.preempted = true;
      return true;
    }
    send_locked(render_request());
    // The reply to REQUEST may be preceded by frames already in flight
    // (e.g. resume snapshots for the upcoming lease, or the end-of-sweep
    // DONE broadcast); handle whatever arrives in order until we get a
    // frame that resolves the request.
    for (;;) {
      const Frame frame = read_frame(/*timeout_ms=*/30'000);
      if (frame.type == Frame::Type::kCkpt) {
        // Resume bytes for a cell the next LEASE will cover. Stored
        // verbatim; the snapshot's own checksums validate at restore.
        inbox_[frame.first] = frame.payload;
        continue;  // the LEASE follows on the same stream
      }
      if (frame.type == Frame::Type::kLease) {
        ++stats_.leases_received;
        if (!run_lease(frame.first, frame.count)) return true;  // preempted
        break;  // next REQUEST
      }
      if (frame.type == Frame::Type::kWait) {
        ++stats_.waits;
        // Sleep on the socket itself: an early DONE (or ERROR) wakes the
        // worker instead of being ignored until the next poll.
        sock_.wait_readable(
            static_cast<int>(std::lround(frame.wait_s * 1000.0)));
        break;  // re-REQUEST (or surface whatever arrived)
      }
      if (frame.type == Frame::Type::kDone) {
        // Best-effort farewell: the coordinator may already be gone, and
        // a failed BYE must not turn a finished sweep into a reconnect
        // storm.
        std::lock_guard<std::mutex> lock(write_mu_);
        send_frame(sock_, render_bye());
        return true;
      }
      if (frame.type == Frame::Type::kError) {
        throw std::runtime_error("fleet worker: coordinator error: " +
                                 frame.name);
      }
      // Anything else from the coordinator is a protocol bug; treat it
      // like a lost connection and resync by reconnecting.
      throw ConnectionLost{};
    }
  }
}

bool FleetWorker::run_lease(std::size_t first, std::size_t count) {
  exp::CheckpointPolicy policy;
  if (checkpoint_every_ > 0.0) {
    policy.every = checkpoint_every_;
    // No disk on the worker side: resume bytes come from the
    // coordinator's inbox, outgoing snapshots ride the heartbeats.
    policy.snapshot_source = [this](std::size_t index) {
      const auto it = inbox_.find(index);
      return it != inbox_.end() ? it->second : std::string();
    };
    policy.on_snapshot = [this](std::size_t index,
                                const std::string& bytes) {
      std::lock_guard<std::mutex> lock(outbox_.mu);
      outbox_.index = index;
      outbox_.bytes = bytes;
      outbox_.dirty = true;
    };
  }
  for (std::size_t i = first; i < first + count && i < cells_.size(); ++i) {
    const exp::CellOutcome outcome =
        exp::run_supervised_cell(i, cells_[i], supervision_, policy);
    if (outcome.status == exp::CellOutcome::Status::kSkipped) {
      // Graceful preemption (SIGTERM set the cancel flag): the cell's
      // final snapshot is in the outbox; ship it with the farewell so
      // the next lessee continues with nothing to replay. Best-effort
      // sends: a dead coordinator just falls back to the last snapshot
      // it already holds.
      flush_outbox();
      std::lock_guard<std::mutex> lock(write_mu_);
      send_frame(sock_, render_bye());
      stats_.preempted = true;
      return false;
    }
    ++stats_.cells_run;
    if (outcome.resumed_from_checkpoint) {
      ++stats_.cells_resumed;
      stats_.events_restored += outcome.restored_events;
      stats_.events_replayed += outcome.events - outcome.restored_events;
    }
    inbox_.erase(i);  // terminal: the resume bytes are spent
    // The RESULT payload is the exact journal record line; the
    // coordinator fsyncs these bytes verbatim, which is what keeps the
    // fleet journal -- and therefore the merged artifacts --
    // byte-identical to a single-machine sweep.
    send_locked(render_result(exp::render_cell_record(outcome)));
  }
  return true;
}

bool FleetWorker::cancelled() const {
  return supervision_.cancel != nullptr &&
         supervision_.cancel->load(std::memory_order_relaxed);
}

void FleetWorker::flush_outbox() {
  std::size_t index = 0;
  std::string snapshot;
  {
    std::lock_guard<std::mutex> lock(outbox_.mu);
    if (!outbox_.dirty) return;
    index = outbox_.index;
    snapshot = std::move(outbox_.bytes);
    outbox_.bytes.clear();
    outbox_.dirty = false;
  }
  const std::string line = render_ckpt(index, snapshot);
  std::lock_guard<std::mutex> lock(write_mu_);
  send_frame(sock_, line);
}

Frame FleetWorker::read_frame(int timeout_ms) {
  std::string line;
  while (!buf_.next_line(&line)) {
    if (!sock_.wait_readable(timeout_ms)) {
      // A silent coordinator past the timeout is indistinguishable from
      // a partition: resync via the reconnect path.
      throw ConnectionLost{};
    }
    char chunk[kRecvChunk];
    const ::ssize_t n = sock_.recv_some(chunk, sizeof(chunk));
    if (n <= 0) throw ConnectionLost{};
    buf_.feed(chunk, static_cast<std::size_t>(n));
  }
  Frame frame;
  std::string error;
  if (!parse_frame(line, &frame, &error)) {
    throw std::runtime_error("fleet worker: bad frame from coordinator (" +
                             error + "): " + line);
  }
  return frame;
}

void FleetWorker::send_locked(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!send_frame(sock_, line)) throw ConnectionLost{};
}

}  // namespace coopnet::fleet
