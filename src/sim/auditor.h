// Swarm invariant auditor (debug tooling, CMake option COOPNET_AUDIT).
//
// The swarm's bookkeeping is intentionally incremental: slot counters,
// piece reservations, rarity counts, the compliant-peer census, byte
// totals and the offered/goodput byte identity are all maintained in place
// by the event handlers, with per-peer epoch counters guarding against
// events that outlive a churned incarnation. A single missed decrement silently
// distorts every incentive measurement downstream. The auditor recomputes
// each of those quantities from first principles -- on every recorded
// swarm event, or every `check_every`-th one -- and throws a structured
// `InvariantViolation` (peer, epoch, sim time, recent event trail) on the
// first mismatch.
//
// Cost model: a full check is O(peers * pieces / 64 + in-flight
// transfers). It is pure observation -- no RNG draws, no scheduled
// events, no state writes -- so an audited run is bit-for-bit identical
// to an unaudited one. When the build does not define COOPNET_AUDIT the
// swarm's instrumentation compiles to nothing and this header only
// contributes unused declarations: audit-off builds pay zero cost.
//
// Checked identities:
//   1. busy_slots[p]     == #in-flight transfers uploaded by p's current
//                           incarnation (and <= upload_slots).
//   2. incoming_count[p] == #in-flight transfers to p's current
//                           incarnation.
//   3. pending[p]        == pieces of in-flight transfers to p plus
//                           reservations held through a retry backoff
//                           window, exactly.
//   4. pieces, locked, pending are pairwise disjoint; `transferable` and
//      `unavailable` equal PeerStore::derive_sets: their unions.
//   5. piece_freq[m]     == 1 (seeder backing) + #active leechers holding
//                           m usable (Swarm::recount_piece_frequencies).
//   6. compliant_unfinished == census of non-free-rider leechers that are
//      neither finished nor permanently gone (recount_compliant_unfinished).
//   7. offered_bytes == goodput_bytes + lost bytes + in-flight bytes, and
//      the swarm's goodput counter matches the per-transfer ledger.
//   8. reputation[p] >= 0.
//   9. the store's hungry index holds exactly the active peers whose
//      `unavailable` set is not complete.
//  10. the store's byte totals == the sums of the per-peer byte counters
//      (PeerStore::recount_byte_totals).
// A checkpoint restore assigns the values 4, 5, 6, 9 and 10 check from
// the same functions, saves none of them, and then runs check_now().
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.h"

namespace coopnet::util {
class ByteSink;
class ByteSource;
}  // namespace coopnet::util

namespace coopnet::sim {

class Swarm;

/// True when the build was configured with -DCOOPNET_AUDIT=ON (tools use
/// this to reject --audit on builds that cannot honor it).
#if COOPNET_AUDIT
inline constexpr bool kAuditCompiledIn = true;
#else
inline constexpr bool kAuditCompiledIn = false;
#endif

/// One swarm lifecycle event, as reported to the auditor. Doubles as the
/// ring-buffer entry for the post-mortem trail.
struct AuditEvent {
  enum class Kind : std::uint8_t {
    kArrive,         // peer became active (subject = from)
    kFinish,         // peer completed its download
    kDepart,         // orderly departure (finish / linger expiry)
    kChurnOut,       // abrupt churn departure (epoch bumped)
    kRejoin,         // churned peer came back
    kSeederDown,     // seeder outage window began (subject = seeder)
    kSeederUp,       // seeder outage window ended
    kTransferStart,  // transfer attempt began
    kTransferEnd,    // completion event fired; flag = payload delivered
    kTransferFail,   // loss/stall abort; flag = backoff retry scheduled
    kRetry,          // backoff expired, held reservation released
  };

  Kind kind = Kind::kArrive;
  Seconds time = 0.0;
  PeerId from = kNoPeer;  // uploader, or the subject of a peer event
  PeerId to = kNoPeer;
  PieceId piece = kNoPiece;
  Bytes bytes = 0;
  int attempt = 0;
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;
  bool flag = false;  // kTransferEnd: delivered; kTransferFail: will_retry

  std::string to_string() const;
};

/// Thrown by the auditor on the first violated invariant. Carries the
/// structured diagnostic (which invariant, which peer/epoch, when) plus
/// the recent-event trail so the failure can be replayed post-hoc.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string invariant, std::string detail, Seconds time,
                     PeerId peer, std::uint32_t epoch,
                     std::uint64_t events_processed, std::string trail);

  const std::string& invariant() const { return invariant_; }
  const std::string& detail() const { return detail_; }
  Seconds time() const { return time_; }
  PeerId peer() const { return peer_; }
  std::uint32_t epoch() const { return epoch_; }
  std::uint64_t events_processed() const { return events_processed_; }
  const std::string& trail() const { return trail_; }

 private:
  std::string invariant_;
  std::string detail_;
  Seconds time_;
  PeerId peer_;
  std::uint32_t epoch_;
  std::uint64_t events_processed_;
  std::string trail_;
};

/// Recomputes the swarm's global identities from scratch and compares
/// them with the incrementally maintained state. Owned by the Swarm when
/// auditing is enabled; readable through `Swarm::auditor()`.
class InvariantAuditor {
 public:
  /// `check_every`: run a full check at every N-th recorded event (1 =
  /// every event). `trail_capacity`: events kept for the diagnostic.
  explicit InvariantAuditor(const Swarm& swarm, std::uint64_t check_every = 1,
                            std::size_t trail_capacity = 48);

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Feeds one swarm event: updates the auditor's shadow ledger of
  /// in-flight transfers and backoff-held reservations, and appends to
  /// the trail. Must be called at the point where the swarm's own state
  /// for that event is already consistent.
  void record(const AuditEvent& e);

  /// Runs a full check when at least `check_every` events accumulated
  /// since the last one. Called by the swarm at event-handler boundaries
  /// (where the global state is quiescent).
  void maybe_check();

  /// Unconditional full check; throws InvariantViolation on the first
  /// mismatch.
  void check_now() const;

  /// Identity 9 alone: recounts every peer's hungry bit from its state
  /// and unavailable set.
  void check_hungry_index() const;

  std::uint64_t events_recorded() const { return events_recorded_; }
  std::uint64_t checks_run() const { return checks_run_; }
  std::size_t inflight_count() const { return inflight_.size(); }
  std::size_t held_reservations() const { return holds_.size(); }

  /// The recent-event trail, newest last, one event per line.
  std::string trail_string() const;

  // --- checkpoint (see sim/checkpoint.h) ---------------------------------
  /// Serializes the shadow ledger (in-flight transfers, backoff holds,
  /// byte counters), the event trail, and the cadence counters, so a
  /// restored audited run checks -- and reports -- exactly what an
  /// uninterrupted run would.
  void checkpoint_save(util::ByteSink& sink) const;
  void checkpoint_load(util::ByteSource& src);

 private:
  /// Shadow entry for a started-and-not-yet-terminated transfer attempt.
  struct InFlight {
    PeerId from, to;
    PieceId piece;
    int attempt;
    std::uint32_t from_epoch, to_epoch;
    Bytes bytes;
  };
  /// A receiver-side reservation held through a retry backoff window.
  struct Hold {
    PeerId to;
    PieceId piece;
    std::uint32_t to_epoch;
  };

  [[noreturn]] void fail(const std::string& invariant,
                         const std::string& detail, PeerId peer,
                         std::uint32_t epoch) const;
  void check_peer_invariants() const;
  void check_piece_frequencies() const;
  void check_census() const;
  void check_byte_totals() const;
  void check_byte_identity() const;

  const Swarm& swarm_;
  std::uint64_t check_every_;
  std::size_t trail_capacity_;

  std::vector<InFlight> inflight_;
  std::vector<Hold> holds_;
  Bytes inflight_bytes_ = 0;
  Bytes goodput_bytes_ = 0;  // delivered payload, per-transfer ledger
  Bytes lost_bytes_ = 0;     // failed/abandoned/vanished payload

  std::deque<AuditEvent> trail_;
  std::uint64_t events_recorded_ = 0;
  std::uint64_t events_since_check_ = 0;
  std::uint64_t checks_run_ = 0;
};

}  // namespace coopnet::sim
