// The checkpoint container's integrity contract: a snapshot decodes only
// when every byte is exactly what encode_snapshot wrote. The adversarial
// sweeps below corrupt EVERY byte offset and truncate at EVERY length --
// a snapshot that has been bit-rotted, torn by a crashed write, or taken
// under a different configuration must be rejected up front (decode or
// restore's front-loaded validation), never half-applied to a swarm.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

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
  ASSERT_EQ(bytes[8], 4) << "current format version moved; update this test";
  bytes[8] = static_cast<char>(version);

  try {
    decode_snapshot(config, bytes);
    FAIL() << "a format-version-" << int{version} << " snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "format version " + std::to_string(version) +
                  " != supported 4"),
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

/// Offset, within a peers section, of the first exchange-ledger row that
/// holds at least two records. Walks PeerStore::checkpoint_save's per-peer
/// layout: kind and state bytes, capacity, four int counters and the
/// epoch; five piece sets; three times; four byte counters; then the
/// ledger row, a u64 count of {u32 peer, four i64}.
std::size_t two_record_ledger_row(const std::string& peers) {
  const std::uint64_t n = u64_at(peers, 0);
  const std::size_t words = (u32_at(peers, 8) + 63) / 64;
  const std::size_t before_ledger =
      (1 + 1 + 8 + 4 * 8 + 4) + 5 * words * 8 + 3 * 8 + 4 * 8;
  std::size_t offset = 12;
  for (std::uint64_t i = 0; i < n; ++i) {
    offset += before_ledger;
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
    // Untouched: nothing queued, and every peer as the constructor left it.
    EXPECT_EQ(swarm.engine().pending(), 0u);
    for (PeerId id = 0; id < swarm.peer_count(); ++id) {
      EXPECT_TRUE(swarm.peer_store().ledger(id).empty()) << id;
      EXPECT_EQ(swarm.peer_store().state(id), PeerState::kPending) << id;
      EXPECT_EQ(swarm.peer_store().uploaded_bytes(id), 0) << id;
    }
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
  EXPECT_EQ(swarm.engine().pending(), 0u);
  for (PeerId id = 0; id < swarm.peer_count(); ++id) {
    EXPECT_TRUE(swarm.peer_store().ledger(id).empty()) << id;
    EXPECT_EQ(swarm.peer_store().state(id), PeerState::kPending) << id;
    EXPECT_EQ(swarm.peer_store().uploaded_bytes(id), 0) << id;
  }

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

}  // namespace
}  // namespace coopnet::sim
