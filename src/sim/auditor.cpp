#include "sim/auditor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "sim/swarm.h"
#include "util/byteio.h"

namespace coopnet::sim {

namespace {

const char* kind_name(AuditEvent::Kind kind) {
  switch (kind) {
    case AuditEvent::Kind::kArrive:
      return "arrive";
    case AuditEvent::Kind::kFinish:
      return "finish";
    case AuditEvent::Kind::kDepart:
      return "depart";
    case AuditEvent::Kind::kChurnOut:
      return "churn-out";
    case AuditEvent::Kind::kRejoin:
      return "rejoin";
    case AuditEvent::Kind::kSeederDown:
      return "seeder-down";
    case AuditEvent::Kind::kSeederUp:
      return "seeder-up";
    case AuditEvent::Kind::kTransferStart:
      return "start";
    case AuditEvent::Kind::kTransferEnd:
      return "complete";
    case AuditEvent::Kind::kTransferFail:
      return "fail";
    case AuditEvent::Kind::kRetry:
      return "retry";
  }
  return "?";
}

bool is_transfer_kind(AuditEvent::Kind kind) {
  switch (kind) {
    case AuditEvent::Kind::kTransferStart:
    case AuditEvent::Kind::kTransferEnd:
    case AuditEvent::Kind::kTransferFail:
    case AuditEvent::Kind::kRetry:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string AuditEvent::to_string() const {
  char buf[160];
  if (is_transfer_kind(kind)) {
    std::snprintf(buf, sizeof(buf),
                  "t=%-10.4f %-11s %u->%u piece=%u attempt=%d "
                  "epochs=%u/%u%s",
                  time, kind_name(kind), from, to, piece, attempt, from_epoch,
                  to_epoch,
                  kind == Kind::kTransferEnd
                      ? (flag ? " delivered" : " undelivered")
                      : (kind == Kind::kTransferFail
                             ? (flag ? " will-retry" : " terminal")
                             : ""));
  } else {
    std::snprintf(buf, sizeof(buf), "t=%-10.4f %-11s peer=%u", time,
                  kind_name(kind), from);
  }
  return buf;
}

InvariantViolation::InvariantViolation(std::string invariant,
                                       std::string detail, Seconds time,
                                       PeerId peer, std::uint32_t epoch,
                                       std::uint64_t events_processed,
                                       std::string trail)
    : std::logic_error([&] {
        std::ostringstream os;
        os << "swarm invariant violated: " << invariant << " (t=" << time
           << ", peer=";
        if (peer == kNoPeer) {
          os << "-";
        } else {
          os << peer << ", epoch=" << epoch;
        }
        os << ", engine event #" << events_processed << ")\n  " << detail;
        if (!trail.empty()) os << "\nrecent events (newest last):\n" << trail;
        return os.str();
      }()),
      invariant_(std::move(invariant)),
      detail_(std::move(detail)),
      time_(time),
      peer_(peer),
      epoch_(epoch),
      events_processed_(events_processed),
      trail_(std::move(trail)) {}

InvariantAuditor::InvariantAuditor(const Swarm& swarm,
                                   std::uint64_t check_every,
                                   std::size_t trail_capacity)
    : swarm_(swarm),
      check_every_(std::max<std::uint64_t>(1, check_every)),
      trail_capacity_(trail_capacity) {}

void InvariantAuditor::record(const AuditEvent& e) {
  ++events_recorded_;
  ++events_since_check_;
  if (trail_capacity_ > 0) {
    if (trail_.size() == trail_capacity_) trail_.pop_front();
    trail_.push_back(e);
  }

  switch (e.kind) {
    case AuditEvent::Kind::kTransferStart:
      inflight_.push_back({e.from, e.to, e.piece, e.attempt, e.from_epoch,
                           e.to_epoch, e.bytes});
      inflight_bytes_ += e.bytes;
      break;
    case AuditEvent::Kind::kTransferEnd:
    case AuditEvent::Kind::kTransferFail: {
      const auto it = std::find_if(
          inflight_.begin(), inflight_.end(), [&](const InFlight& f) {
            return f.from == e.from && f.to == e.to && f.piece == e.piece &&
                   f.attempt == e.attempt;
          });
      if (it == inflight_.end()) {
        fail("transfer-lifecycle",
             "completion/failure event for a transfer the auditor never saw "
             "start (double termination?)",
             e.from, e.from_epoch);
      }
      inflight_bytes_ -= it->bytes;
      if (e.kind == AuditEvent::Kind::kTransferEnd && e.flag) {
        goodput_bytes_ += it->bytes;
      } else {
        lost_bytes_ += it->bytes;
      }
      inflight_.erase(it);
      if (e.kind == AuditEvent::Kind::kTransferFail && e.flag) {
        holds_.push_back({e.to, e.piece, e.to_epoch});
      }
      break;
    }
    case AuditEvent::Kind::kRetry: {
      const auto it = std::find_if(
          holds_.begin(), holds_.end(), [&](const Hold& h) {
            return h.to == e.to && h.piece == e.piece &&
                   h.to_epoch == e.to_epoch;
          });
      if (it == holds_.end()) {
        fail("retry-reservation",
             "retry fired without a matching backoff-held reservation "
             "(double retry?)",
             e.to, e.to_epoch);
      }
      holds_.erase(it);
      break;
    }
    default:
      break;  // peer lifecycle events only feed the trail
  }
}

void InvariantAuditor::maybe_check() {
  if (events_since_check_ < check_every_) return;
  events_since_check_ = 0;
  ++checks_run_;
  check_now();
}

void InvariantAuditor::fail(const std::string& invariant,
                            const std::string& detail, PeerId peer,
                            std::uint32_t epoch) const {
  throw InvariantViolation(invariant, detail, swarm_.engine().now(), peer,
                           epoch, swarm_.engine().events_processed(),
                           trail_string());
}

void InvariantAuditor::check_now() const {
  check_peer_invariants();
  check_hungry_index();
  check_piece_frequencies();
  check_census();
  check_byte_totals();
  check_byte_identity();
}

void InvariantAuditor::check_hungry_index() const {
  // 9: the derived index the seeders pick targets from.
  const PeerStore& store = swarm_.peer_store();
  for (ConstPeer p : swarm_.peers()) {
    const bool hungry = p.active() && !p.unavailable().complete();
    if (store.hungry(p.id()) != hungry) {
      fail("hungry-index",
           std::string("hungry bit is ") +
               (hungry ? "clear" : "set") + " but the peer is " +
               (p.active() ? "active" : "inactive") + " with " +
               std::to_string(p.unavailable().count()) + " of " +
               std::to_string(p.unavailable().size()) +
               " pieces unavailable",
           p.id(), p.epoch());
    }
  }
}

void InvariantAuditor::check_peer_invariants() const {
  const PeerStore& store = swarm_.peer_store();
  const std::size_t n = store.size();

  // One pass over the shadow ledger builds the per-peer expectations
  // (epoch-filtered: transfers pinned to an older incarnation no longer
  // count). A per-peer scan of the ledger would make every check
  // O(peers x in-flight), which at mid scale turns an audited run from
  // seconds into hours.
  std::vector<int> expected_busy(n, 0);
  std::vector<int> expected_incoming(n, 0);
  std::vector<std::size_t> expected_pending(n, 0);
  for (const InFlight& f : inflight_) {
    if (f.from < n && f.from_epoch == store.epoch(f.from)) {
      ++expected_busy[f.from];
    }
    if (f.to < n && f.to_epoch == store.epoch(f.to)) {
      ++expected_incoming[f.to];
      ++expected_pending[f.to];
      if (!store.pending(f.to).has(f.piece)) {
        fail("pending-reservation",
             "piece " + std::to_string(f.piece) +
                 " has an in-flight transfer but is not in the pending set",
             f.to, f.to_epoch);
      }
    }
  }
  for (const Hold& h : holds_) {
    if (h.to < n && h.to_epoch == store.epoch(h.to)) {
      ++expected_pending[h.to];
      if (!store.pending(h.to).has(h.piece)) {
        fail("pending-reservation",
             "piece " + std::to_string(h.piece) +
                 " has a backoff-held reservation but is not in the "
                 "pending set",
             h.to, h.to_epoch);
      }
    }
  }

  PieceSet transferable(store.piece_space());
  PieceSet unavailable(store.piece_space());
  for (ConstPeer p : swarm_.peers()) {
    // 1+2: slot counters vs the shadow in-flight ledger.
    if (p.busy_slots() != expected_busy[p.id()]) {
      fail("busy-slots",
           "busy_slots=" + std::to_string(p.busy_slots()) + " but " +
               std::to_string(expected_busy[p.id()]) +
               " in-flight uploads from the current incarnation",
           p.id(), p.epoch());
    }
    if (p.busy_slots() > p.upload_slots()) {
      fail("busy-slots",
           "busy_slots=" + std::to_string(p.busy_slots()) + " exceeds " +
               std::to_string(p.upload_slots()) + " upload slots",
           p.id(), p.epoch());
    }
    if (p.incoming_count() != expected_incoming[p.id()]) {
      fail("incoming-count",
           "incoming_count=" + std::to_string(p.incoming_count()) + " but " +
               std::to_string(expected_incoming[p.id()]) +
               " in-flight downloads to the current incarnation",
           p.id(), p.epoch());
    }
    const int max_incoming = swarm_.config().max_incoming;
    if (max_incoming > 0 && p.incoming_count() > max_incoming) {
      fail("incoming-count",
           "incoming_count=" + std::to_string(p.incoming_count()) +
               " exceeds max_incoming=" + std::to_string(max_incoming),
           p.id(), p.epoch());
    }

    // 3: pending == in-flight pieces + backoff-held reservations, exactly
    // (membership was checked in the ledger pass above; the count closes
    // the other direction).
    if (p.pending().count() != expected_pending[p.id()]) {
      fail("pending-reservation",
           "pending holds " + std::to_string(p.pending().count()) +
               " pieces but only " +
               std::to_string(expected_pending[p.id()]) +
               " in-flight/backoff reservations exist (stale reservation "
               "leak)",
           p.id(), p.epoch());
    }

    // 4: set algebra. pieces/locked/pending are pairwise disjoint; the
    // derived sets are their unions.
    if (p.pieces().intersects(p.locked())) {
      fail("pieces-locked-disjoint", "a piece is both usable and locked",
           p.id(), p.epoch());
    }
    if (p.pending().intersects(p.pieces()) ||
        p.pending().intersects(p.locked())) {
      fail("pending-disjoint",
           "a pending (in-flight) piece is already usable or locked", p.id(),
           p.epoch());
    }
    store.derive_sets(p.id(), transferable, unavailable);
    if (p.transferable() != transferable) {
      fail("transferable-union", "transferable != pieces | locked", p.id(),
           p.epoch());
    }
    if (p.unavailable() != unavailable) {
      fail("unavailable-union",
           "unavailable has " + std::to_string(p.unavailable().count()) +
               " pieces; pieces | locked | pending has " +
               std::to_string(unavailable.count()),
           p.id(), p.epoch());
    }

    // 8: the reputation ledger never goes negative.
    if (swarm_.reputation(p.id()) < 0.0) {
      fail("reputation-nonnegative", "negative reported-upload balance",
           p.id(), p.epoch());
    }
  }
}

void InvariantAuditor::check_piece_frequencies() const {
  // 5: rarity recounted from scratch (a churned peer's copies are
  // subtracted until it rejoins).
  const std::vector<std::uint32_t> freq = swarm_.recount_piece_frequencies();
  for (PieceId piece = 0; piece < freq.size(); ++piece) {
    if (swarm_.piece_frequency(piece) != freq[piece]) {
      fail("piece-frequency",
           "piece " + std::to_string(piece) + ": maintained count " +
               std::to_string(swarm_.piece_frequency(piece)) +
               " != recomputed " + std::to_string(freq[piece]),
           kNoPeer, 0);
    }
  }
}

void InvariantAuditor::check_census() const {
  // 6: the completion condition's census. Compliant and strategic
  // leechers count until they finish or are permanently gone; free-riders
  // never count.
  const std::size_t census = swarm_.recount_compliant_unfinished();
  if (swarm_.compliant_unfinished() != census) {
    fail("compliant-census",
         "compliant_unfinished=" +
             std::to_string(swarm_.compliant_unfinished()) +
             " but the census counts " + std::to_string(census),
         kNoPeer, 0);
  }
}

void InvariantAuditor::check_byte_totals() const {
  // 10: the O(1) byte totals the metrics sample vs the per-peer counters.
  const auto str = [](const ByteTotals& t) {
    return std::to_string(t.uploaded) + "/" +
           std::to_string(t.leecher_uploaded) + "/" +
           std::to_string(t.freerider_usable) + "/" +
           std::to_string(t.downloaded_raw);
  };
  const ByteTotals& kept = swarm_.peer_store().byte_totals();
  const ByteTotals sum = swarm_.peer_store().recount_byte_totals();
  if (kept != sum) {
    fail("byte-totals",
         "uploaded/leecher-uploaded/free-rider-usable/raw-downloaded " +
             str(kept) + " != per-peer sums " + str(sum),
         kNoPeer, 0);
  }
}

void InvariantAuditor::check_byte_identity() const {
  // 7: every offered byte is delivered, lost, or still in flight.
  const FaultStats& stats = swarm_.fault_stats();
  const Bytes accounted = goodput_bytes_ + lost_bytes_ + inflight_bytes_;
  if (stats.offered_bytes != accounted) {
    fail("offered-byte-identity",
         "offered_bytes=" + std::to_string(stats.offered_bytes) +
             " != goodput " + std::to_string(goodput_bytes_) + " + lost " +
             std::to_string(lost_bytes_) + " + in-flight " +
             std::to_string(inflight_bytes_),
         kNoPeer, 0);
  }
  if (stats.goodput_bytes != goodput_bytes_) {
    fail("goodput-ledger",
         "goodput_bytes=" + std::to_string(stats.goodput_bytes) +
             " != per-transfer delivered ledger " +
             std::to_string(goodput_bytes_),
         kNoPeer, 0);
  }
}

std::string InvariantAuditor::trail_string() const {
  std::string out;
  for (const AuditEvent& e : trail_) {
    out += "  ";
    out += e.to_string();
    out += '\n';
  }
  if (!out.empty()) out.pop_back();
  return out;
}


namespace {

void save_audit_event(util::ByteSink& sink, const AuditEvent& e) {
  sink.put_u8(static_cast<std::uint8_t>(e.kind));
  sink.put_double(e.time);
  sink.put_u32(e.from);
  sink.put_u32(e.to);
  sink.put_u32(e.piece);
  sink.put_i64(e.bytes);
  sink.put_u32(static_cast<std::uint32_t>(e.attempt));
  sink.put_u32(e.from_epoch);
  sink.put_u32(e.to_epoch);
  sink.put_bool(e.flag);
}

AuditEvent load_audit_event(util::ByteSource& src) {
  AuditEvent e;
  const std::uint8_t kind = src.get_u8();
  if (kind > static_cast<std::uint8_t>(AuditEvent::Kind::kRetry)) {
    throw util::SerializeError("auditor restore: event kind " +
                               std::to_string(kind) + " out of range");
  }
  e.kind = static_cast<AuditEvent::Kind>(kind);
  e.time = src.get_double();
  e.from = src.get_u32();
  e.to = src.get_u32();
  e.piece = src.get_u32();
  e.bytes = src.get_i64();
  e.attempt = static_cast<int>(src.get_u32());
  e.from_epoch = src.get_u32();
  e.to_epoch = src.get_u32();
  e.flag = src.get_bool();
  return e;
}

}  // namespace

void InvariantAuditor::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u64(inflight_.size());
  for (const InFlight& f : inflight_) {
    sink.put_u32(f.from);
    sink.put_u32(f.to);
    sink.put_u32(f.piece);
    sink.put_u32(static_cast<std::uint32_t>(f.attempt));
    sink.put_u32(f.from_epoch);
    sink.put_u32(f.to_epoch);
    sink.put_i64(f.bytes);
  }
  sink.put_u64(holds_.size());
  for (const Hold& h : holds_) {
    sink.put_u32(h.to);
    sink.put_u32(h.piece);
    sink.put_u32(h.to_epoch);
  }
  sink.put_i64(inflight_bytes_);
  sink.put_i64(goodput_bytes_);
  sink.put_i64(lost_bytes_);
  sink.put_u64(trail_.size());
  for (const AuditEvent& e : trail_) save_audit_event(sink, e);
  sink.put_u64(events_recorded_);
  sink.put_u64(events_since_check_);
  sink.put_u64(checks_run_);
}

void InvariantAuditor::checkpoint_load(util::ByteSource& src) {
  const std::size_t n_inflight = src.get_count(32);
  inflight_.clear();
  inflight_.reserve(n_inflight);
  for (std::size_t i = 0; i < n_inflight; ++i) {
    InFlight f;
    f.from = src.get_u32();
    f.to = src.get_u32();
    f.piece = src.get_u32();
    f.attempt = static_cast<int>(src.get_u32());
    f.from_epoch = src.get_u32();
    f.to_epoch = src.get_u32();
    f.bytes = src.get_i64();
    inflight_.push_back(f);
  }
  const std::size_t n_holds = src.get_count(12);
  holds_.clear();
  holds_.reserve(n_holds);
  for (std::size_t i = 0; i < n_holds; ++i) {
    Hold h;
    h.to = src.get_u32();
    h.piece = src.get_u32();
    h.to_epoch = src.get_u32();
    holds_.push_back(h);
  }
  inflight_bytes_ = src.get_i64();
  goodput_bytes_ = src.get_i64();
  lost_bytes_ = src.get_i64();
  const std::size_t n_trail = src.get_count(38);
  if (n_trail > trail_capacity_) {
    throw util::SerializeError(
        "auditor restore: trail length " + std::to_string(n_trail) +
        " exceeds capacity " + std::to_string(trail_capacity_));
  }
  trail_.clear();
  for (std::size_t i = 0; i < n_trail; ++i) {
    trail_.push_back(load_audit_event(src));
  }
  events_recorded_ = src.get_u64();
  events_since_check_ = src.get_u64();
  checks_run_ = src.get_u64();
}

}  // namespace coopnet::sim
