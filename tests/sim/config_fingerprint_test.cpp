// Pins the checkpoint config fingerprint. canonical_config_string is what
// a v5 snapshot, a fleet HELLO and a sweep journal compare configs by, so
// its bytes are a compatibility contract: every pinned configuration (see
// pinned_configs.h) must render exactly as committed in
// tests/golden/config_fingerprints.txt, and a snapshot committed as
// tests/golden/snapshot_v5_tiny.bin must still decode, restore and finish
// with the same report as an uninterrupted run.
//
// Regenerate only for an intended format change (and bump the snapshot
// format version with it):
//
//   COOPNET_REGEN_GOLDEN=1 ./build/tests/test_config_fingerprint
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/json.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "sim/auditor.h"
#include "sim/checkpoint.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/atomic_file.h"
#include "util/byteio.h"

#include "pinned_configs.h"

#ifndef COOPNET_GOLDEN_DIR
#error "COOPNET_GOLDEN_DIR must point at tests/golden"
#endif

namespace coopnet::sim {
namespace {

std::string golden_path(const std::string& file) {
  return std::string(COOPNET_GOLDEN_DIR) + "/" + file;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool regen_requested() {
  const char* env = std::getenv("COOPNET_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// The golden file: "== name" header lines, each followed by that
/// configuration's canonical_config_string.
std::string render(
    const std::vector<std::pair<std::string, SwarmConfig>>& configs) {
  std::string out;
  for (const auto& [name, config] : configs) {
    out += "== " + name + "\n" + canonical_config_string(config);
  }
  return out;
}

std::map<std::string, std::string> parse(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream lines(text);
  std::string line;
  std::string* body = nullptr;
  while (std::getline(lines, line)) {
    if (line.rfind("== ", 0) == 0) {
      body = &out[line.substr(3)];
    } else if (body != nullptr) {
      *body += line + "\n";
    }
  }
  return out;
}

TEST(ConfigFingerprint, MatchesGoldenForEveryPinnedConfig) {
  const auto configs = pinned_configs();
  const std::string path = golden_path("config_fingerprints.txt");
  if (regen_requested()) {
    util::write_file_atomic(path, render(configs));
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing " << path;
  const std::map<std::string, std::string> pinned = parse(golden);
  EXPECT_EQ(pinned.size(), configs.size());
  for (const auto& [name, config] : configs) {
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << "no golden fingerprint for " << name;
    EXPECT_EQ(canonical_config_string(config), it->second) << name;
  }
  EXPECT_EQ(render(configs), golden) << "golden order or content drifted";
}

SwarmConfig tiny_config() {
  SwarmConfig config = SwarmConfig::small(core::Algorithm::kBitTorrent, 7);
  config.n_peers = 8;
  config.file_bytes = 512LL * 1024;
  return config;
}

std::string report_of(Swarm& swarm, metrics::RunMetrics& collector) {
  return metrics::to_json(metrics::build_report(swarm, collector));
}

/// The committed snapshot's recipe: the tiny cell run to half of
/// `straight_end` (the uninterrupted run's end time), saved with its
/// metrics section and encoded. It is a default build's snapshot, so an
/// audit build's auditor section is left out.
std::string tiny_snapshot(const SwarmConfig& config, double straight_end) {
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  collector.install(swarm);
  swarm.start();
  swarm.advance_until(straight_end / 2.0);
  EXPECT_FALSE(swarm.finished());
  std::vector<SnapshotSection> sections = SwarmCheckpoint::save(swarm);
  std::erase_if(sections, [](const SnapshotSection& s) {
    return s.id == kSectionAudit;
  });
  util::ByteSink sink;
  collector.checkpoint_save(sink);
  sections.push_back({kSectionMetrics, sink.take()});
  return encode_snapshot(config, sections);
}

TEST(ConfigFingerprint, CommittedV5SnapshotStillRestores) {
  const SwarmConfig config = tiny_config();
  Swarm straight(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics straight_metrics;
  straight_metrics.install(straight);
  straight.run();
  const std::string expected = report_of(straight, straight_metrics);

  const std::string path = golden_path("snapshot_v5_tiny.bin");
  if (regen_requested()) {
    util::write_file_atomic(path,
                            tiny_snapshot(config, straight.engine().now()));
    GTEST_SKIP() << "regenerated " << path;
  }

  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty()) << "missing " << path;
  const std::vector<SnapshotSection> sections =
      decode_snapshot(config, bytes);
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  swarm.start_restored();
  collector.install_restored(swarm);
  if (kAuditCompiledIn) {
    // audit_every is part of the fingerprint, so an audit build audits
    // this config, and the default build's snapshot has no auditor
    // section: rejected before anything changes.
    try {
      SwarmCheckpoint::restore(swarm, sections);
      FAIL() << "an audit build restored a snapshot without an audit "
                "section";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("no audit section"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(swarm.engine().pending(), 0u);
    for (PeerId id = 0; id < swarm.peer_count(); ++id) {
      EXPECT_TRUE(swarm.peer_store().ledger(id).empty()) << id;
      EXPECT_EQ(swarm.peer_store().state(id), PeerState::kPending) << id;
      EXPECT_EQ(swarm.peer_store().uploaded_bytes(id), 0) << id;
    }
    return;
  }
  SwarmCheckpoint::restore(swarm, sections);
  for (const SnapshotSection& s : sections) {
    if (s.id != kSectionMetrics) continue;
    util::ByteSource src(s.payload, "metrics section");
    collector.checkpoint_load(src);
    src.expect_exhausted();
  }
  swarm.advance_until(config.max_time);
  EXPECT_EQ(report_of(swarm, collector), expected);
}

// Encoding is a pure function of the swarm state: saving the same state
// again must produce the committed v5 bytes exactly, not merely bytes
// that decode to the same run.
TEST(ConfigFingerprint, CommittedV5SnapshotReencodesByteForByte) {
  const SwarmConfig config = tiny_config();
  Swarm straight(config, strategy::make_strategy(config.algorithm));
  straight.run();

  const std::string path = golden_path("snapshot_v5_tiny.bin");
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing " << path;
  const std::string bytes = tiny_snapshot(config, straight.engine().now());
  ASSERT_EQ(bytes.size(), golden.size());
  std::size_t first_diff = 0;
  while (first_diff < bytes.size() && bytes[first_diff] == golden[first_diff]) {
    ++first_diff;
  }
  EXPECT_EQ(first_diff, bytes.size()) << "first differing byte";
}

}  // namespace
}  // namespace coopnet::sim
