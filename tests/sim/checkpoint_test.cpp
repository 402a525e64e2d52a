// The checkpoint container's integrity contract: a snapshot decodes only
// when every byte is exactly what encode_snapshot wrote. The adversarial
// sweeps below corrupt EVERY byte offset and truncate at EVERY length --
// a snapshot that has been bit-rotted, torn by a crashed write, or taken
// under a different configuration must be rejected up front (decode or
// restore's front-loaded validation), never half-applied to a swarm.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/run_metrics.h"
#include "sim/auditor.h"
#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/byteio.h"

namespace coopnet::sim {
namespace {

SwarmConfig tiny_config(
    std::uint64_t seed = 7,
    core::Algorithm algorithm = core::Algorithm::kBitTorrent) {
  // Small on purpose: the corruption sweep decodes the container once
  // per byte offset, so the snapshot should be a few KB, not MB.
  SwarmConfig config = SwarmConfig::small(algorithm, seed);
  config.n_peers = 8;
  config.file_bytes = 512LL * 1024;
  return config;
}

/// Simulated end time of the cell (it finishes long before max_time).
double sim_duration(const SwarmConfig& config) {
  Swarm probe(config, strategy::make_strategy(config.algorithm));
  probe.run();
  return probe.engine().now();
}

/// Runs a fresh swarm to mid-cell and returns the saved sections.
std::vector<SnapshotSection> mid_cell_sections(const SwarmConfig& config) {
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start();
  swarm.advance_until(sim_duration(config) / 2.0);
  EXPECT_FALSE(swarm.finished()) << "cell ended before the snapshot point";
  return SwarmCheckpoint::save(swarm);
}

/// Runs a fresh swarm to mid-cell and returns its encoded snapshot.
std::string mid_cell_snapshot(const SwarmConfig& config) {
  return encode_snapshot(config, mid_cell_sections(config));
}

/// True when `bytes` is rejected end-to-end: either decode_snapshot or
/// SwarmCheckpoint::restore's front-loaded validation throws. Nothing
/// corrupt may survive both gates.
bool rejected(const SwarmConfig& config, const std::string& bytes) {
  try {
    const std::vector<SnapshotSection> sections =
        decode_snapshot(config, bytes);
    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    swarm.start_restored();
    SwarmCheckpoint::restore(swarm, sections);
  } catch (const CheckpointError&) {
    return true;
  }
  return false;
}

TEST(CheckpointContainer, DecodeRoundTripsEncode) {
  const SwarmConfig config = tiny_config();
  const std::vector<SnapshotSection> saved = mid_cell_sections(config);
  const std::string bytes = encode_snapshot(config, saved);

  const std::vector<SnapshotSection> decoded =
      decode_snapshot(config, bytes);
  ASSERT_EQ(decoded.size(), saved.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(decoded[i].id, saved[i].id);
    EXPECT_EQ(decoded[i].payload, saved[i].payload)
        << "section id " << saved[i].id;
  }
  // Serialization is deterministic: the same state encodes to the same
  // bytes.
  EXPECT_EQ(encode_snapshot(config, saved), bytes);
}

TEST(CheckpointContainer, ChurnedCellReencodesToTheSameBytes) {
  // A cell with every kind of state the tiny cell lacks: departed and
  // rejoined peers, failed transfers awaiting retry, FairTorrent's
  // deficits. Its snapshot must survive decode -> restore -> save ->
  // encode unchanged, so restore loses nothing the encoder writes.
  SwarmConfig config =
      SwarmConfig::paper_scale(core::Algorithm::kFairTorrent, 11);
  config.n_peers = 200;
  config.file_bytes = 8LL * 1024 * 1024;
  config.faults = moderate_churn();
  config.faults.transfer_loss_rate = 0.05;
  config.max_time = 400.0;

  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start();
  swarm.advance_until(60.0);
  ASSERT_FALSE(swarm.finished());
  ASSERT_GT(swarm.fault_stats().churn_departures, 0u);
  ASSERT_GT(swarm.fault_stats().churn_rejoins, 0u);
  ASSERT_GT(swarm.fault_stats().transfer_failures, 0u);
  const std::string bytes =
      encode_snapshot(config, SwarmCheckpoint::save(swarm));

  const std::vector<SnapshotSection> decoded = decode_snapshot(config, bytes);
  EXPECT_EQ(encode_snapshot(config, decoded), bytes);

  Swarm restored(config, strategy::make_strategy(config.algorithm));
  restored.start_restored();
  SwarmCheckpoint::restore(restored, decoded);
  EXPECT_EQ(encode_snapshot(config, SwarmCheckpoint::save(restored)), bytes);
}

TEST(CheckpointContainer, RejectsCorruptionAtEveryByteOffset) {
  if (kAuditCompiledIn) {
    // The audit shadow-ledger section is optional at restore, so a flip
    // in ITS id field is survivable by design; the every-offset contract
    // is validated in the default (non-audit) build.
    GTEST_SKIP() << "audit builds carry an optional section";
  }
  const SwarmConfig config = tiny_config();
  const std::string bytes = mid_cell_snapshot(config);
  ASSERT_FALSE(rejected(config, bytes)) << "pristine snapshot must apply";

  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xFF);
    EXPECT_TRUE(rejected(config, corrupt))
        << "corrupt byte at offset " << offset << " of " << bytes.size()
        << " was accepted";
  }
}

TEST(CheckpointContainer, RejectsTruncationAtEveryLength) {
  const SwarmConfig config = tiny_config();
  const std::string bytes = mid_cell_snapshot(config);

  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_TRUE(rejected(config, bytes.substr(0, length)))
        << "truncation to " << length << " of " << bytes.size()
        << " bytes was accepted";
  }
}

TEST(CheckpointContainer, RejectsASnapshotFromADifferentConfiguration) {
  const SwarmConfig config = tiny_config(/*seed=*/7);
  const std::string bytes = mid_cell_snapshot(config);

  // Any result-affecting field difference must be caught by the config
  // fingerprint before section parsing even starts.
  SwarmConfig other_seed = config;
  other_seed.seed = 8;
  EXPECT_THROW(decode_snapshot(other_seed, bytes), CheckpointError);

  SwarmConfig other_algo = config;
  other_algo.algorithm = core::Algorithm::kTChain;
  EXPECT_THROW(decode_snapshot(other_algo, bytes), CheckpointError);
}

/// Rewrites the header's format version, which follows the 8-byte magic
/// and is covered by no CRC, so rewriting it is the whole re-encoding.
void expect_version_rejected(std::uint8_t version) {
  const SwarmConfig config = tiny_config();
  std::string bytes = mid_cell_snapshot(config);
  ASSERT_EQ(bytes[8], 5) << "current format version moved; update this test";
  bytes[8] = static_cast<char>(version);

  try {
    decode_snapshot(config, bytes);
    FAIL() << "a format-version-" << int{version} << " snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "format version " + std::to_string(version) +
                  " != supported 5"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointContainer, RejectsASnapshotFromFormatVersion1) {
  // Version 1 stored a 4-byte prepare hint per queue record.
  expect_version_rejected(1);
}

TEST(CheckpointContainer, RejectsASnapshotFromFormatVersion2) {
  // Version 2 stored the per-edge counters as four hash maps per peer,
  // with their bucket counts, in hash-iteration order.
  expect_version_rejected(2);
}

TEST(CheckpointContainer, RejectsASnapshotFromFormatVersion3) {
  // Version 3 stored three interest-memo version counters per peer and a
  // free-slot registry in the peers section, and a neighbor index beside
  // each BitTorrent pick.
  expect_version_rejected(3);
}

TEST(CheckpointContainer, RejectsASnapshotFromFormatVersion4) {
  // Version 4 stored the build-time per-peer fields, the derived piece
  // sets and byte totals, the census and the rarity counts, and wrote the
  // peers section peer by peer instead of column by column.
  expect_version_rejected(4);
}

TEST(CheckpointContainer, RestoreRequiresEverySwarmSection) {
  const SwarmConfig config = tiny_config();
  const std::vector<SnapshotSection> sections = mid_cell_sections(config);

  for (std::size_t drop = 0; drop < sections.size(); ++drop) {
    if (sections[drop].id == kSectionAudit) continue;  // optional by design
    std::vector<SnapshotSection> partial;
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (i != drop) partial.push_back(sections[i]);
    }
    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    swarm.start_restored();
    EXPECT_THROW(SwarmCheckpoint::restore(swarm, partial), CheckpointError)
        << "restore accepted a snapshot missing section id "
        << sections[drop].id;
  }
}

/// Rewrites a queue section -- a u64 count, then per entry the time, the
/// seq, and the tag's eight u32s, two doubles and one i64 -- setting `a`
/// on every strategy-timer tag to `sub`. Returns how many tags changed.
std::size_t retarget_strategy_timers(SnapshotSection& queue,
                                     std::uint32_t sub) {
  util::ByteSource src(queue.payload, "queue section");
  util::ByteSink sink;
  const std::uint64_t n = src.get_u64();
  sink.put_u64(n);
  std::size_t changed = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sink.put_double(src.get_double());
    sink.put_u64(src.get_u64());
    const std::uint32_t kind = src.get_u32();
    const std::uint32_t a = src.get_u32();
    sink.put_u32(kind);
    if (kind == kEvStrategyTimer) {
      sink.put_u32(sub);
      ++changed;
    } else {
      sink.put_u32(a);
    }
    for (int field = 0; field < 6; ++field) sink.put_u32(src.get_u32());
    sink.put_double(src.get_double());
    sink.put_double(src.get_double());
    sink.put_i64(src.get_i64());
  }
  src.expect_exhausted();
  queue.payload = sink.take();
  return changed;
}

TEST(CheckpointContainer, RestoreRejectsAnExternalTimerNobodyRegistered) {
  // The snapshot's queue holds the RunMetrics sampler (an external timer).
  // A target swarm without install_restored has no timer to run it, so
  // restore must refuse up front instead of failing when it fires.
  const SwarmConfig config = tiny_config();
  std::vector<SnapshotSection> sections;
  {
    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    metrics::RunMetrics collector(1.0);
    collector.install(swarm);
    swarm.start();
    swarm.advance_until(sim_duration(config) / 2.0);
    ASSERT_FALSE(swarm.finished());
    sections = SwarmCheckpoint::save(swarm);
  }

  Swarm bare(config, strategy::make_strategy(config.algorithm));
  bare.start_restored();
  try {
    SwarmCheckpoint::restore(bare, sections);
    FAIL() << "restored an external timer with no registered owner";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("external timer sub-id 0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(bare.engine().pending(), 0u) << "restore mutated before failing";

  // The same sections restore once the sampler is registered again.
  Swarm target(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector(1.0);
  target.start_restored();
  collector.install_restored(target);
  EXPECT_NO_THROW(SwarmCheckpoint::restore(target, sections));
}

TEST(CheckpointContainer, RestoreRejectsAStrategyTimerTheMechanismDoesNotOwn) {
  // BitTorrent owns strategy timer 0 (its rechoke round) and nothing else.
  const SwarmConfig config = tiny_config();
  ASSERT_EQ(config.algorithm, core::Algorithm::kBitTorrent);
  std::vector<SnapshotSection> sections = mid_cell_sections(config);
  for (SnapshotSection& s : sections) {
    if (s.id == kSectionQueue) {
      ASSERT_GT(retarget_strategy_timers(s, 7), 0u)
          << "no strategy timer queued at the snapshot point";
    }
  }

  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start_restored();
  try {
    SwarmCheckpoint::restore(swarm, sections);
    FAIL() << "restored a strategy timer sub-id BitTorrent does not own";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("does not own"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(swarm.engine().pending(), 0u) << "restore mutated before failing";
}

// --- exchange-ledger rows ---------------------------------------------------

/// One saved exchange-ledger record: the other peer's u32 id, then the
/// deficit and the three receipt counters as i64.
constexpr std::size_t kLedgerRecordBytes = 4 + 4 * 8;

std::uint64_t u64_at(const std::string& bytes, std::size_t offset) {
  return util::ByteSource(bytes.data() + offset, 8, "").get_u64();
}

std::uint32_t u32_at(const std::string& bytes, std::size_t offset) {
  return util::ByteSource(bytes.data() + offset, 4, "").get_u32();
}

void set_u32_at(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

void set_u64_at(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

/// Expects `swarm` as its constructor left it: nothing queued, every peer
/// pending with an empty ledger and no bytes uploaded.
void expect_untouched(const Swarm& swarm) {
  EXPECT_EQ(swarm.engine().pending(), 0u);
  for (PeerId id = 0; id < swarm.peer_count(); ++id) {
    EXPECT_TRUE(swarm.peer_store().ledger(id).empty()) << id;
    EXPECT_EQ(swarm.peer_store().state(id), PeerState::kPending) << id;
    EXPECT_EQ(swarm.peer_store().uploaded_bytes(id), 0) << id;
  }
}

/// Offset, within a peers section, of the first column after the u64 peer
/// count and u32 piece space: n state bytes; slot, incoming and epoch
/// columns of n 4-byte values; then the pieces, locked and pending columns
/// of n sets of `words` u64 each.
constexpr std::size_t kColumnsStart = 8 + 4;

std::size_t piece_words(const std::string& peers) {
  return (u32_at(peers, 8) + 63) / 64;
}

/// Offset of peer `id`'s set in the piece-set column `column` (0 pieces,
/// 1 locked, 2 pending; column 3, peer 0 is where the pending column ends).
std::size_t piece_set_at(const std::string& peers, std::size_t column,
                         PeerId id) {
  const std::uint64_t n = u64_at(peers, 0);
  const std::size_t words = piece_words(peers);
  return kColumnsStart + n * (1 + 3 * 4) + (column * n + id) * words * 8;
}

/// Offset, within a peers section, of the first exchange-ledger row that
/// holds at least two records. Walks PeerStore::checkpoint_save's column
/// layout: the three piece-set columns; two time columns and four byte
/// counter columns of n 8-byte values; then the ledger rows, each a u64
/// count of {u32 peer, four i64}.
std::size_t two_record_ledger_row(const std::string& peers) {
  const std::uint64_t n = u64_at(peers, 0);
  std::size_t offset = piece_set_at(peers, 3, 0) + n * (2 + 4) * 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t records = u64_at(peers, offset);
    if (records >= 2) return offset;
    offset += 8 + records * kLedgerRecordBytes;
  }
  ADD_FAILURE() << "no ledger row with two records at the snapshot point";
  return 0;
}

TEST(CheckpointContainer, RestoreRejectsALedgerRowThatIsNotStrictlyAscending) {
  const SwarmConfig config = tiny_config();
  const std::vector<SnapshotSection> sections = mid_cell_sections(config);
  std::size_t peers_index = sections.size();
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].id == kSectionPeers) peers_index = i;
  }
  ASSERT_LT(peers_index, sections.size());
  const std::string& peers = sections[peers_index].payload;
  const std::size_t row = two_record_ledger_row(peers);
  ASSERT_GT(row, 0u);
  const std::size_t first = row + 8;
  const std::size_t second = first + kLedgerRecordBytes;
  const std::uint32_t id1 = u32_at(peers, first);
  const std::uint32_t id2 = u32_at(peers, second);
  ASSERT_LT(id1, id2) << "the saved row is not ascending";
  const auto peer_count = static_cast<std::uint32_t>(u64_at(peers, 0));

  struct Case {
    const char* name;
    std::uint32_t first_id;
    std::uint32_t second_id;
  };
  for (const Case& c : {Case{"duplicate", id1, id1},
                        Case{"descending", id2, id1},
                        Case{"out of range", id1, peer_count}}) {
    SCOPED_TRACE(c.name);
    std::vector<SnapshotSection> bad = sections;
    set_u32_at(bad[peers_index].payload, first, c.first_id);
    set_u32_at(bad[peers_index].payload, second, c.second_id);

    Swarm swarm(config, strategy::make_strategy(config.algorithm));
    swarm.start_restored();
    try {
      SwarmCheckpoint::restore(swarm, bad);
      FAIL() << "restored a ledger row that is not strictly ascending";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("not strictly ascending"),
                std::string::npos)
          << e.what();
    }
    expect_untouched(swarm);
  }
}

// --- strategy ids -------------------------------------------------------------

/// Index of the section with id `id`.
std::size_t section_index(const std::vector<SnapshotSection>& sections,
                          std::uint32_t id) {
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].id == id) return i;
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

/// Rewrites the u32 at `offset` of the strategy section to `bad` and
/// requires restore to reject it before anything changes: the strategy
/// keeps no id it would later index the store with, and the swarm stays
/// as its constructor left it.
void expect_strategy_id_rejected(const SwarmConfig& config,
                                 const std::vector<SnapshotSection>& sections,
                                 std::size_t offset, std::uint32_t bad) {
  std::vector<SnapshotSection> corrupt = sections;
  std::string& payload =
      corrupt[section_index(corrupt, kSectionStrategy)].payload;
  ASSERT_LE(offset + 4, payload.size());
  set_u32_at(payload, offset, bad);

  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start_restored();
  try {
    SwarmCheckpoint::restore(swarm, corrupt);
    FAIL() << "restored a strategy id " << bad << " at offset " << offset;
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("id " + std::to_string(bad) +
                                         " is not below"),
              std::string::npos)
        << e.what();
  }
  expect_untouched(swarm);

  // The pristine sections restore: the rewritten id alone was at fault.
  Swarm target(config, strategy::make_strategy(config.algorithm));
  target.start_restored();
  EXPECT_NO_THROW(SwarmCheckpoint::restore(target, sections));
}

/// A small cell of `algorithm` (20 leechers, so that peers upload to one
/// another), saved at the first tenth of its run at which `ready` holds
/// for the strategy section.
struct StrategyCell {
  SwarmConfig config;
  std::vector<SnapshotSection> sections;
  std::string payload;  // the strategy section
  std::uint32_t peers = 0;
  std::uint32_t pieces = 0;
};

template <typename Ready>
StrategyCell strategy_cell(core::Algorithm algorithm, Ready&& ready) {
  StrategyCell cell;
  cell.config = tiny_config(7, algorithm);
  cell.config.n_peers = 20;
  cell.config.file_bytes = 4LL * 1024 * 1024;
  cell.peers = static_cast<std::uint32_t>(cell.config.n_peers +
                                          cell.config.seeder_count);
  cell.pieces = cell.config.piece_count();
  const double end = sim_duration(cell.config);
  Swarm swarm(cell.config, strategy::make_strategy(algorithm));
  swarm.start();
  for (int tenth = 1; tenth < 10; ++tenth) {
    swarm.advance_until(end * tenth / 10.0);
    cell.sections = SwarmCheckpoint::save(swarm);
    cell.payload =
        cell.sections[section_index(cell.sections, kSectionStrategy)].payload;
    if (ready(cell.payload)) return cell;
  }
  ADD_FAILURE() << "the strategy never held the state the test rewrites";
  return cell;
}

TEST(CheckpointContainer, RestoreRejectsABitTorrentPickOutsideThePopulation) {
  // Layout: a u64 count of started peers; per peer its u32 id, a u64
  // count of unchoked u32 ids, the u32 optimistic id, then its uploads.
  const StrategyCell cell = strategy_cell(
      core::Algorithm::kBitTorrent,
      [](const std::string& p) { return u64_at(p, 0) > 0; });
  ASSERT_GT(u64_at(cell.payload, 0), 0u) << "no started peer";
  const std::size_t unchoked = 8 + 4;
  const std::uint64_t picks = u64_at(cell.payload, unchoked);
  const std::size_t optimistic = unchoked + 8 + 4 * picks;
  const std::uint32_t saved = u32_at(cell.payload, optimistic);
  ASSERT_TRUE(saved < cell.peers || saved == kNoPeer) << saved;
  // kNoPeer is legal in the optimistic slot; the population size is not.
  expect_strategy_id_rejected(cell.config, cell.sections, optimistic,
                              cell.peers);
}

/// Offset of the share count of the first PropShare peer holding a share,
/// or 0 when none does. Layout: a u64 count of started peers; per peer its
/// u32 id, a u64 count of {u32 source, f64 bytes} shares, the u32
/// optimistic id, then its uploads: two u32 busy counts and a u64 count of
/// {u32 to, u32 piece, bool} entries.
std::size_t first_share_list(const std::string& p) {
  const std::uint64_t count = u64_at(p, 0);
  std::size_t offset = 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    offset += 4;
    const std::uint64_t shares = u64_at(p, offset);
    if (shares > 0) return offset;
    offset += 8 + 12 * shares + 4 + 4 + 4;
    offset += 8 + 9 * u64_at(p, offset);
  }
  return 0;
}

TEST(CheckpointContainer, RestoreRejectsAPropShareSourceOutsideThePopulation) {
  const StrategyCell cell =
      strategy_cell(core::Algorithm::kPropShare, [](const std::string& p) {
        return first_share_list(p) > 0;
      });
  const std::size_t shares = first_share_list(cell.payload);
  ASSERT_GT(shares, 0u) << "no peer holds a share";
  {
    SCOPED_TRACE("share source");
    ASSERT_LT(u32_at(cell.payload, shares + 8), cell.peers);
    expect_strategy_id_rejected(cell.config, cell.sections, shares + 8,
                                kNoPeer);
  }
  SCOPED_TRACE("optimistic id");
  const std::size_t optimistic = shares + 8 + 12 * u64_at(cell.payload, shares);
  const std::uint32_t saved = u32_at(cell.payload, optimistic);
  ASSERT_TRUE(saved < cell.peers || saved == kNoPeer) << saved;
  expect_strategy_id_rejected(cell.config, cell.sections, optimistic,
                              cell.peers + 1);
}

TEST(CheckpointContainer, RestoreRejectsAReputationPinOutsideThePopulation) {
  // Layout: a u64 count of f64 trust values, then a u64 count of pinned
  // peers, each a u32 id and the u32 pinned target.
  const auto pins_at = [](const std::string& p) {
    return 8 + 8 * u64_at(p, 0);
  };
  const StrategyCell cell = strategy_cell(
      core::Algorithm::kReputation,
      [&](const std::string& p) { return u64_at(p, pins_at(p)) > 0; });
  const std::size_t pins = pins_at(cell.payload);
  ASSERT_GT(u64_at(cell.payload, pins), 0u) << "no pinned peer";
  const std::size_t target = pins + 8 + 4;
  const std::uint32_t saved = u32_at(cell.payload, target);
  ASSERT_TRUE(saved < cell.peers || saved == kNoPeer) << saved;
  expect_strategy_id_rejected(cell.config, cell.sections, target, cell.peers);
}

/// Offset of the first chain link in a T-Chain strategy section, or 0
/// when no peer holds one. Layout: the u64 backlog cap and f64 grace; a
/// u64 count of peers with state, each its u32 id and four u64-counted
/// lists -- obligations {piece, designator, suggested, f64 created},
/// in-flight duties {to, piece, unlocks, designator, suggested}, chain
/// links {piece, sender, bool}, downstream waiters {receiver, piece}; then
/// the staged plan.
std::size_t first_chain_link(const std::string& p) {
  std::size_t offset = 8 + 8;
  const std::uint64_t count = u64_at(p, offset);
  offset += 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    offset += 4;
    offset += 8 + 20 * u64_at(p, offset);  // obligations
    offset += 8 + 20 * u64_at(p, offset);  // in-flight duties
    const std::uint64_t links = u64_at(p, offset);
    if (links > 0) return offset + 8;
    offset += 8 + 9 * links;
    offset += 8 + 8 * u64_at(p, offset);  // downstream waiters
  }
  return 0;
}

TEST(CheckpointContainer, RestoreRejectsATChainIdOutsideItsRange) {
  const StrategyCell cell =
      strategy_cell(core::Algorithm::kTChain, [](const std::string& p) {
        return first_chain_link(p) > 0;
      });
  const std::string& p = cell.payload;
  const std::size_t link = first_chain_link(p);
  ASSERT_GT(link, 0u) << "no chain link at the snapshot point";
  ASSERT_LT(u32_at(p, link), cell.pieces);
  ASSERT_LT(u32_at(p, link + 4), cell.peers);
  {
    SCOPED_TRACE("link piece");
    expect_strategy_id_rejected(cell.config, cell.sections, link,
                                cell.pieces);
  }
  SCOPED_TRACE("link sender");
  expect_strategy_id_rejected(cell.config, cell.sections, link + 4,
                              cell.peers);
}

// --- state restore derives ---------------------------------------------------

TEST(CheckpointContainer, RestoreRejectsOverlappingPieceSets) {
  // Restore derives unavailable = pieces | locked | pending, which is only
  // right when the three are disjoint: a piece that is both usable and
  // pending must be rejected, not unioned away.
  const SwarmConfig config = tiny_config();
  std::vector<SnapshotSection> sections = mid_cell_sections(config);
  std::string& peers = sections[section_index(sections, kSectionPeers)].payload;
  const std::size_t words = piece_words(peers);
  bool rewritten = false;
  for (PeerId id = 0; id < u64_at(peers, 0) && !rewritten; ++id) {
    for (std::size_t w = 0; w < words && !rewritten; ++w) {
      const std::size_t held = piece_set_at(peers, 0, id) + 8 * w;
      const std::size_t pending = piece_set_at(peers, 2, id) + 8 * w;
      const std::uint64_t bits = u64_at(peers, held);
      if (bits == 0) continue;
      set_u64_at(peers, pending,
                 u64_at(peers, pending) |
                     std::uint64_t{1} << std::countr_zero(bits));
      rewritten = true;
    }
  }
  ASSERT_TRUE(rewritten) << "no peer holds a piece at the snapshot point";
  // Encoding the rewritten sections gives the peers section a valid CRC,
  // so only restore's own check stands between it and the swarm.
  const std::vector<SnapshotSection> decoded =
      decode_snapshot(config, encode_snapshot(config, sections));

  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  swarm.start_restored();
  try {
    SwarmCheckpoint::restore(swarm, decoded);
    FAIL() << "restored a peer whose pieces and pending sets overlap";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("sets overlap"), std::string::npos)
        << e.what();
  }
  expect_untouched(swarm);
}

/// Snapshots `live`, restores the snapshot into a fresh swarm and requires
/// every value the snapshot does not hold -- the build-time fields, the
/// derived sets and hungry bits, the byte totals, the rarity index and the
/// census -- to equal the live swarm's.
void expect_restore_rebuilds(const Swarm& live) {
  const SwarmConfig& config = live.config();
  const std::vector<SnapshotSection> sections = decode_snapshot(
      config, encode_snapshot(config, SwarmCheckpoint::save(live)));
  Swarm restored(config, strategy::make_strategy(config.algorithm));
  restored.start_restored();
  SwarmCheckpoint::restore(restored, sections);

  const PeerStore& want = live.peer_store();
  const PeerStore& got = restored.peer_store();
  for (PeerId id = 0; id < want.size(); ++id) {
    SCOPED_TRACE("peer " + std::to_string(id));
    EXPECT_TRUE(got.transferable(id) == want.transferable(id));
    EXPECT_TRUE(got.unavailable(id) == want.unavailable(id));
    EXPECT_EQ(got.hungry(id), want.hungry(id));
    EXPECT_EQ(got.kind(id), want.kind(id));
    EXPECT_EQ(got.capacity(id), want.capacity(id));
    EXPECT_EQ(got.upload_slots(id), want.upload_slots(id));
    EXPECT_EQ(got.collusion_group(id), want.collusion_group(id));
    EXPECT_EQ(got.arrival_time(id), want.arrival_time(id));
  }
  EXPECT_EQ(got.byte_totals().uploaded, want.byte_totals().uploaded);
  EXPECT_EQ(got.byte_totals().leecher_uploaded,
            want.byte_totals().leecher_uploaded);
  EXPECT_EQ(got.byte_totals().freerider_usable,
            want.byte_totals().freerider_usable);
  EXPECT_EQ(got.byte_totals().downloaded_raw,
            want.byte_totals().downloaded_raw);

  const PieceFreqIndex& want_index = live.piece_freq_index();
  const PieceFreqIndex& got_index = restored.piece_freq_index();
  for (PieceId piece = 0; piece < want_index.pieces(); ++piece) {
    EXPECT_EQ(restored.piece_frequency(piece), live.piece_frequency(piece))
        << "piece " << piece;
  }
  ASSERT_EQ(got_index.max_freq(), want_index.max_freq());
  for (std::uint32_t f = 0; f <= want_index.max_freq(); ++f) {
    for (std::size_t w = 0; w < want_index.word_count(); ++w) {
      EXPECT_EQ(got_index.level_words(f)[w], want_index.level_words(f)[w])
          << "level " << f << ", word " << w;
    }
  }
  EXPECT_EQ(restored.compliant_unfinished(), live.compliant_unfinished());
}

TEST(CheckpointContainer, RestoreRebuildsWhatTheSnapshotLeavesOut) {
  {
    SCOPED_TRACE("churned FairTorrent, whitewashing large-view free-riders");
    SwarmConfig config =
        SwarmConfig::paper_scale(core::Algorithm::kFairTorrent, 11);
    config.n_peers = 200;
    config.file_bytes = 8LL * 1024 * 1024;
    config.faults = moderate_churn();
    config.faults.transfer_loss_rate = 0.05;
    config.free_rider_fraction = 0.2;
    config.attack.whitewashing = true;
    config.attack.large_view = true;
    config.max_time = 400.0;
    Swarm live(config, strategy::make_strategy(config.algorithm));
    live.start();
    live.advance_until(60.0);
    ASSERT_FALSE(live.finished());
    ASSERT_GT(live.fault_stats().churn_departures, 0u);
    ASSERT_GT(live.freerider_usable_bytes(), 0);
    ASSERT_LT(live.leecher_uploaded_bytes(), live.total_uploaded_bytes());
    expect_restore_rebuilds(live);
  }
  {
    SCOPED_TRACE("T-Chain colluders");
    SwarmConfig config = tiny_config(7, core::Algorithm::kTChain);
    config.n_peers = 20;
    config.file_bytes = 4LL * 1024 * 1024;
    config.free_rider_fraction = 0.2;
    config.attack.collusion = true;
    const double end = sim_duration(config);
    Swarm live(config, strategy::make_strategy(config.algorithm));
    live.start();
    bool locked = false;
    for (int step = 1; step < 20 && !locked; ++step) {
      live.advance_until(end * step / 20.0);
      for (PeerId id = 0; id < live.peer_count() && !locked; ++id) {
        locked = !live.peer_store().locked(id).empty();
      }
    }
    ASSERT_TRUE(locked) << "no peer held a locked piece";
    ASSERT_FALSE(live.finished());
    expect_restore_rebuilds(live);
  }
}

}  // namespace
}  // namespace coopnet::sim
