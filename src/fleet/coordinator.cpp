#include "fleet/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/algorithm.h"

namespace coopnet::fleet {

namespace {

/// Poll tick: the upper bound on how long expiry/abandonment lag behind
/// the wall clock. Short enough that lease deadlines are honoured
/// promptly, long enough that an idle coordinator burns no CPU.
constexpr int kPollTimeoutMs = 200;

/// Receive chunk size; frames are short except RESULT lines, which carry
/// an embedded report (a few hundred KB for big sweeps), so drain in
/// generous chunks.
constexpr std::size_t kRecvChunk = 64 * 1024;

/// Bound on any single blocking send to a worker. Frames are tiny, so a
/// worker that cannot drain one within this window is stalled or gone;
/// failing the send (and closing the client) keeps the single-threaded
/// poll loop -- lease expiry included -- from freezing behind it.
constexpr double kSendTimeoutSecs = 10.0;

}  // namespace

struct FleetCoordinator::Client {
  std::uint64_t id = 0;
  util::Socket sock;
  LineBuffer buf;
  std::string name;
  bool joined = false;  // HELLO accepted
  bool closed = false;  // pending removal from the poll set
  bool parted = false;  // sent BYE (graceful; not a worker loss)
  bool waiting = false;  // last REQUEST was answered with WAIT
};

FleetCoordinator::FleetCoordinator(
    const std::vector<sim::SwarmConfig>& cells, std::uint64_t base_seed,
    const FleetControl& control, exp::RunJournal* journal,
    const exp::JournalIndex* resume)
    : cells_(cells),
      sweep_(exp::SweepFingerprint::of(cells, base_seed)),
      control_(control),
      journal_(journal),
      table_(cells.size(), control.lease),
      listener_(control.port, control.host),
      start_(std::chrono::steady_clock::now()) {
  if (cells_.empty()) {
    throw std::invalid_argument(
        "fleet coordinator: the sweep has no cells to distribute");
  }
  control_.validate();
  if (journal_ == nullptr) {
    throw std::invalid_argument(
        "fleet coordinator: a journal is required (it is the crash-"
        "recovery log; pass --journal)");
  }
  if (resume != nullptr) {
    // Coordinator restart: the journal already validated (cells,
    // base_seed) against this sweep; seed the lease table so finished
    // cells are never handed out again.
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (const exp::JournalEntry* entry = resume->find(i)) {
        table_.mark_done(i);
        entries_[i] = *entry;
      }
    }
  }
}

FleetCoordinator::~FleetCoordinator() = default;

std::uint16_t FleetCoordinator::port() const { return listener_.port(); }

double FleetCoordinator::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

exp::SweepResult FleetCoordinator::serve() {
  while (!table_.all_done()) {
    // fds covers the listener plus the clients that exist right now;
    // accept_new_clients() below grows clients_, so the dispatch loop
    // must stay bounded by this snapshot or it would index past the
    // end of fds. Fresh connections get polled on the next tick.
    const std::size_t n_polled = clients_.size();
    std::vector<pollfd> fds;
    fds.reserve(n_polled + 1);
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& client : clients_) {
      fds.push_back({client->sock.fd(), POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), kPollTimeoutMs);  // EINTR: just retick

    if (fds[0].revents & POLLIN) accept_new_clients();
    for (std::size_t i = 0; i < n_polled; ++i) {
      if (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) {
        pump_client(*clients_[i]);
      }
    }

    // Tick: deadline expiries first (they may push cells over the
    // attempt limit), then quarantine whatever ran out of lives.
    const std::size_t expired = table_.expire(now());
    stats_.leases_expired += expired;
    quarantine_abandoned();

    // Re-queued cells (a preempted worker's BYE, a lease expiry) must
    // not strand until a parked worker's WAIT runs out: the moment a
    // grant is possible again, re-answer everyone whose last REQUEST got
    // a WAIT. This is what keeps a preempted cell's hand-off latency at
    // one poll tick instead of a WAIT interval.
    const double t = now();
    if (table_.next_grant_time(t) <= t) {
      for (auto& client : clients_) {
        if (client->joined && !client->closed && client->waiting) {
          answer_request(*client);
        }
      }
    }

    // Sweep out closed clients (after the poll pass so indices stay
    // aligned with fds).
    for (std::size_t i = clients_.size(); i-- > 0;) {
      if (clients_[i]->closed) {
        drop_client(i, /*lost=*/!clients_[i]->parted);
      }
    }
  }

  // Everyone still connected gets told the sweep is over, so a worker
  // sleeping on WAIT wakes up to DONE instead of a dead socket.
  for (auto& client : clients_) {
    if (!client->closed && !send_frame(client->sock, render_done())) {
      client->closed = true;
    }
  }
  // Linger briefly so in-flight frames (a duplicate RESULT, the BYE
  // replies) drain instead of triggering RSTs that could destroy the
  // DONE broadcast sitting in a worker's receive buffer. all_done is
  // true here, so pump_client answers any straggler REQUEST with DONE
  // and counts late RESULTs as duplicates without touching the journal.
  const double linger_deadline = now() + 5.0;
  while (!clients_.empty() && now() < linger_deadline) {
    std::vector<pollfd> fds;
    for (const auto& client : clients_) {
      fds.push_back({client->sock.fd(), POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        pump_client(*clients_[i]);
      }
    }
    for (std::size_t i = clients_.size(); i-- > 0;) {
      if (clients_[i]->closed) drop_client(i, /*lost=*/false);
    }
  }
  clients_.clear();

  stats_.cells_reassigned = table_.reassignments();
  return merge();
}

void FleetCoordinator::accept_new_clients() {
  // Drain the whole accept queue; the listener is non-blocking.
  for (;;) {
    util::Socket sock = listener_.accept();
    if (!sock.valid()) return;
    auto client = std::make_unique<Client>();
    client->id = next_client_id_++;
    client->sock = std::move(sock);
    client->sock.set_send_timeout(kSendTimeoutSecs);
    clients_.push_back(std::move(client));
  }
}

void FleetCoordinator::pump_client(Client& client) {
  char chunk[kRecvChunk];
  const ::ssize_t n = client.sock.recv_some(chunk, sizeof(chunk));
  if (n <= 0) {
    // EOF (worker exit or SIGKILL -- the kernel closes its fds) or a
    // socket error; either way the connection is gone.
    client.closed = true;
    return;
  }
  client.buf.feed(chunk, static_cast<std::size_t>(n));

  std::string line;
  while (!client.closed && client.buf.next_line(&line)) {
    Frame frame;
    std::string error;
    if (!parse_frame(line, &frame, &error)) {
      send_frame(client.sock, render_error("bad frame: " + error));
      client.closed = true;
      return;
    }
    if (!handle_frame(client, frame)) {
      client.closed = true;
      return;
    }
  }
}

bool FleetCoordinator::handle_frame(Client& client, const Frame& frame) {
  if (!client.joined && frame.type != Frame::Type::kHello) {
    send_frame(client.sock,
               render_error("expected HELLO first, got " +
                            std::string(to_string(frame.type))));
    return false;
  }
  switch (frame.type) {
    case Frame::Type::kHello: {
      if (frame.proto != kProtocolVersion) {
        send_frame(
            client.sock,
            render_error("protocol version mismatch: worker speaks v" +
                         std::to_string(frame.proto) +
                         ", coordinator speaks v" +
                         std::to_string(kProtocolVersion) +
                         " -- rebuild so both sides match"));
        return false;
      }
      const exp::SweepFingerprint theirs{frame.cells, frame.base_seed,
                                         frame.config_crc};
      if (theirs != sweep_) {
        // Same contract as --resume header validation: a worker built
        // from a different command line computes different cells, and
        // merging them would be garbage.
        send_frame(client.sock,
                   render_error("sweep fingerprint mismatch: worker has " +
                                theirs.describe() + ", coordinator has " +
                                sweep_.describe() +
                                " -- launch workers with the same sweep "
                                "flags as the coordinator"));
        return false;
      }
      client.joined = true;
      client.name = frame.name;
      ++stats_.workers_joined;
      return send_frame(client.sock,
                        render_welcome(control_.heartbeat_interval,
                                       control_.lease.lease_duration));
    }
    case Frame::Type::kRequest:
      table_.renew(client.id, now());
      answer_request(client);
      return true;
    case Frame::Type::kResult:
      table_.renew(client.id, now());
      return ingest_result(client, frame.payload);
    case Frame::Type::kCkpt: {
      // A snapshot is as good as a PING for liveness, and newest-wins:
      // the worker only ever ships monotonically later sim-times for the
      // same cell. One for an already-finished cell is a benign race
      // with its own RESULT -- drop it.
      table_.renew(client.id, now());
      if (frame.first < cells_.size() && !table_.is_done(frame.first)) {
        snapshots_[frame.first] = frame.payload;
        ++stats_.snapshots_received;
      }
      return true;
    }
    case Frame::Type::kPing:
      table_.renew(client.id, now());
      return true;
    case Frame::Type::kBye:
      // Graceful departure; any unfinished leases go back to the pool.
      client.parted = true;
      table_.release_holder(client.id, now());
      quarantine_abandoned();
      return false;
    default:
      send_frame(client.sock,
                 render_error("unexpected frame from worker: " +
                              std::string(to_string(frame.type))));
      return false;
  }
}

void FleetCoordinator::answer_request(Client& client) {
  // A failed (or timed-out) send means the worker is gone or wedged;
  // closing it lets its leases expire and move elsewhere.
  client.waiting = false;
  if (table_.all_done()) {
    if (!send_frame(client.sock, render_done())) client.closed = true;
    return;
  }
  const double t = now();
  if (std::optional<Lease> lease = table_.acquire(client.id, t)) {
    ++stats_.leases_granted;
    // Snapshots travel BEFORE the lease: by the time the worker sees
    // LEASE and starts cell i, any resume bytes for it are already in
    // its inbox (the frames share one ordered TCP stream).
    for (std::size_t i = lease->first; i < lease->first + lease->count;
         ++i) {
      const auto snap = snapshots_.find(i);
      if (snap == snapshots_.end()) continue;
      if (!send_frame(client.sock, render_ckpt(i, snap->second))) {
        client.closed = true;
        return;
      }
      ++stats_.snapshots_shipped;
    }
    if (!send_frame(client.sock, render_lease(lease->first, lease->count))) {
      client.closed = true;
    }
    return;
  }
  // Nothing grantable: either every pending cell is backing off (tell
  // the worker when to come back) or everything is leased elsewhere
  // (re-ask within a lease duration so expiries get picked up).
  const double next = table_.next_grant_time(t);
  double wait = control_.lease.lease_duration / 2.0;
  if (next > t && next - t < wait) wait = next - t;
  wait = std::clamp(wait, 0.05, 5.0);
  if (!send_frame(client.sock, render_wait(wait))) {
    client.closed = true;
    return;
  }
  client.waiting = true;  // re-answered early if a cell frees up
}

bool FleetCoordinator::ingest_result(Client& client,
                                     const std::string& record_line) {
  exp::JournalEntry entry;
  if (!exp::parse_cell_record(record_line, &entry)) {
    send_frame(client.sock,
               render_error("unparseable RESULT record line"));
    return false;
  }
  if (entry.index >= cells_.size() ||
      entry.seed != cells_[entry.index].seed) {
    send_frame(client.sock,
               render_error("RESULT for cell " + std::to_string(entry.index) +
                            " does not match this sweep's schedule"));
    return false;
  }
  if (!table_.complete(entry.index)) {
    // Duplicate delivery: a slow worker finished a cell that a
    // reassignment already completed elsewhere. First write wins -- the
    // journal stays append-once per cell and the merge is unambiguous.
    ++stats_.duplicate_results;
    return true;
  }
  // Write-ahead durability: the exact received bytes hit the fsync'd
  // journal before the coordinator considers the cell done anywhere
  // else. A crash right after this line loses nothing on restart.
  journal_->append_record_line(record_line);
  snapshots_.erase(entry.index);  // terminal: the resume bytes are dead
  entries_[entry.index] = std::move(entry);
  productive_workers_.insert(client.id);
  return true;
}

void FleetCoordinator::quarantine_abandoned() {
  for (std::size_t index : table_.take_abandoned()) {
    exp::CellOutcome outcome;
    outcome.status = exp::CellOutcome::Status::kFailed;
    outcome.index = index;
    outcome.seed = cells_[index].seed;
    outcome.algorithm = core::to_string(cells_[index].algorithm);
    outcome.error =
        "abandoned after " + std::to_string(control_.lease.max_attempts) +
        " lease attempts (every worker holding it was lost); the cell is "
        "quarantined -- rerun it alone to debug";
    const std::string line = exp::render_cell_record(outcome);
    journal_->append_record_line(line);
    exp::JournalEntry entry;
    // Round-trip through the parser so entries_ always holds exactly
    // what the journal holds.
    if (!exp::parse_cell_record(line, &entry)) {
      throw std::logic_error(
          "fleet coordinator: rendered an unparseable quarantine record");
    }
    entries_[index] = std::move(entry);
    snapshots_.erase(index);
    ++stats_.cells_abandoned;
    std::fprintf(stderr,
                 "[fleet] cell %zu quarantined after %d lost leases\n",
                 index, control_.lease.max_attempts);
  }
}

void FleetCoordinator::drop_client(std::size_t index, bool lost) {
  Client& client = *clients_[index];
  if (client.joined && lost) {
    ++stats_.workers_lost;
    std::fprintf(stderr, "[fleet] worker '%s' (#%llu) lost; re-queueing %zu cell(s)\n",
                 client.name.c_str(),
                 static_cast<unsigned long long>(client.id),
                 table_.release_holder(client.id, now()));
  } else {
    table_.release_holder(client.id, now());
  }
  quarantine_abandoned();
  clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(index));
}

exp::SweepResult FleetCoordinator::merge() const {
  exp::SweepResult result;
  result.outcomes.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const auto it = entries_.find(i);
    if (it == entries_.end()) {
      throw std::logic_error(
          "fleet coordinator: cell " + std::to_string(i) +
          " has no journal entry after all_done -- lease table bug");
    }
    // outcome_from_journal re-validates (seed, algorithm) and restores
    // the exact recorded report bytes; merging in index order makes the
    // artifacts byte-identical to a local run_cells sweep.
    result.outcomes.push_back(exp::outcome_from_journal(it->second, cells_[i]));
  }
  result.timing.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  result.timing.cells = cells_.size();
  result.timing.jobs = std::max<std::size_t>(1, productive_workers_.size());
  result.timing.completed = result.count(exp::CellOutcome::Status::kOk);
  result.timing.failed = result.count(exp::CellOutcome::Status::kFailed) +
                         result.count(exp::CellOutcome::Status::kTimedOut);
  result.timing.skipped = result.count(exp::CellOutcome::Status::kSkipped);
  return result;
}

}  // namespace coopnet::fleet
