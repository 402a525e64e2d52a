// Deterministic mid-cell checkpoint/restore for a live Swarm.
//
// A snapshot captures everything a run's future depends on -- the engine's
// event queue (as (time, seq, tag) records; see sim/event_kinds.h),
// clock and counters, the RNG stream, the struct-of-arrays PeerStore, the
// rarity index, per-strategy state, the reputation ledger, fault/churn
// counters, and (in audit builds) the invariant auditor's shadow ledger --
// such that a restored swarm continues BYTE-IDENTICAL to the uninterrupted
// run: same reports, same JSONL trace bytes, same audit verdicts (see
// DESIGN §13).
//
// Layering: SwarmCheckpoint::save/restore move swarm state to/from typed
// sections; encode_snapshot/decode_snapshot wrap sections in a versioned,
// CRC-framed container bound to a fingerprint of the run's configuration.
// Driver-owned state (metrics accumulators, trace-sink offsets) rides in
// reserved section ids the swarm layer passes through untouched, so the
// exp/ and fleet layers can persist their half of the run in the same
// file with the same integrity guarantees.
//
// Integrity: every section carries a CRC32; the container header carries a
// config fingerprint. decode_snapshot verifies ALL of it before returning,
// and restore() front-loads its structural validation, so a truncated or
// bit-rotted snapshot is rejected with an actionable error before any
// swarm state changes -- never applied half-way.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.h"

namespace coopnet::sim {

class Swarm;

/// Thrown when a snapshot cannot be decoded, fails a checksum, was taken
/// under a different configuration, or describes state the running build
/// cannot reconstruct. The message always names the failing piece
/// (section, offset, or config field class) and what to do about it.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One typed, self-contained chunk of serialized run state.
struct SnapshotSection {
  std::uint32_t id = 0;
  std::string payload;
};

/// Section ids. Swarm-owned sections are produced/consumed by
/// SwarmCheckpoint; driver-owned ones by the exp/fleet layers.
enum SnapshotSectionId : std::uint32_t {
  kSectionEngine = 1,    // clock, seq counter, processed count
  kSectionQueue = 2,     // pending events: (time, seq, tag) each
  kSectionRng = 3,       // xoshiro256** state words
  kSectionPeers = 4,     // PeerStore arrays + active registry + aggregates
  kSectionStrategy = 5,  // ExchangeStrategy::checkpoint_save payload
  kSectionSwarm = 6,     // reputation ledger, census, fault stats, rarity
  kSectionMetrics = 7,   // driver-owned: RunMetrics accumulators
  kSectionAudit = 8,     // audit builds: InvariantAuditor shadow ledger
  kSectionTrace = 9,     // driver-owned: trace-sink byte offset
};

/// Serializes/restores a live Swarm. All members are static; the class
/// exists so Swarm can grant friendship in one line.
class SwarmCheckpoint {
 public:
  /// Snapshots a quiescent swarm (between advance_until calls) into the
  /// swarm-owned sections (1-6, plus 8 when this build audits).
  static std::vector<SnapshotSection> save(const Swarm& swarm);

  /// Applies a snapshot to a freshly built swarm. Call sequence:
  ///   Swarm swarm(config, strategy);   // same config as the snapshot
  ///   swarm.start_restored();
  ///   metrics.install_restored(swarm); // when the run samples metrics
  ///   SwarmCheckpoint::restore(swarm, sections);
  ///   while (!swarm.finished()) swarm.advance_until(...);
  /// Section presence, the engine/RNG/queue sections, and every queue
  /// tag are parsed and validated BEFORE anything mutates, so the common
  /// defects (missing/truncated/foreign sections, unknown event kinds, a
  /// external timer sub-id nobody registered, a strategy timer sub-id the
  /// mechanism does not own) throw CheckpointError with the swarm
  /// untouched. Payload bit-rot is already excluded by decode_snapshot's
  /// per-section CRCs; if a CRC-valid but version-skewed payload still
  /// fails structurally mid-apply, the thrown CheckpointError says to
  /// discard the swarm.
  /// Driver-owned sections (7, 9) are ignored here.
  static void restore(Swarm& swarm,
                      const std::vector<SnapshotSection>& sections);
};

/// Canonical rendering of every result-affecting SwarmConfig field --
/// doubles as IEEE-754 bit patterns, so equality means bit-equality.
std::string canonical_config_string(const SwarmConfig& config);

/// Wraps sections in the versioned container: magic, format version, a
/// CRC32+length fingerprint of canonical_config_string(config), then each
/// section CRC-framed. The result is what lands on disk / on the wire.
std::string encode_snapshot(const SwarmConfig& config,
                            const std::vector<SnapshotSection>& sections);

/// Inverse of encode_snapshot. Verifies the magic, version, config
/// fingerprint (against the config the CALLER is about to run), and every
/// section checksum before returning; throws CheckpointError naming the
/// failure (truncation point, corrupt section id, or config mismatch)
/// otherwise.
std::vector<SnapshotSection> decode_snapshot(const SwarmConfig& config,
                                             const std::string& bytes);

}  // namespace coopnet::sim
