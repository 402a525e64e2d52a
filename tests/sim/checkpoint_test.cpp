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

SwarmConfig tiny_config(std::uint64_t seed = 7) {
  // Small on purpose: the corruption sweep decodes the container once
  // per byte offset, so the snapshot should be a few KB, not MB.
  SwarmConfig config = SwarmConfig::small(core::Algorithm::kBitTorrent,
                                          seed);
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

TEST(CheckpointContainer, RejectsASnapshotFromFormatVersion1) {
  // Version 1 stored a 4-byte prepare hint per queue record; the header
  // version is what keeps such a snapshot from being misparsed. The
  // version field follows the 8-byte magic and no CRC covers it, so
  // rewriting it is the whole re-encoding.
  const SwarmConfig config = tiny_config();
  std::string bytes = mid_cell_snapshot(config);
  ASSERT_EQ(bytes[8], 2) << "current format version moved; update this test";
  bytes[8] = 1;

  try {
    decode_snapshot(config, bytes);
    FAIL() << "a format-version-1 snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 1 != supported 2"),
              std::string::npos)
        << e.what();
  }
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

}  // namespace
}  // namespace coopnet::sim
