// Golden-equivalence suite: the optimized engine/swarm hot paths must be
// observably identical to the seed implementation. Each cell of the
// 6-mechanism x {no-faults, moderate churn} x N in {50, 200} matrix is
// pinned to a golden RunReport JSON (byte-identical) plus the streaming
// trace-sink JSONL output (line-by-line for the N = 50 cells named in
// trace_committed; line count + FNV-1a content hash for every cell).
// T-Chain adds three admission cells per N that the matrix never reaches:
// a backlog cap of 2 (most deliveries are refused), 20% colluding
// free-riders, and max_incoming = 2. Six more cells per N pin the seeders'
// upload path: three seeders with outages (Reciprocity, T-Chain),
// max_incoming = 2 on BitTorrent, lingering finished peers (FairTorrent)
// and staggered arrivals (Reciprocity, BitTorrent). Three more per N pin
// ledger rows that differ most from neighbor rows: whitewashing large-view
// free-riders (FairTorrent, BitTorrent) and three seeders (FairTorrent).
//
// The goldens under tests/golden/ were generated from the pre-optimization
// seed engine (std::priority_queue<std::function> scheduler, linear
// needy-neighbor and rarest-first scans). Regenerate only when a change is
// *intended* to alter simulation behaviour:
//
//   COOPNET_REGEN_GOLDEN=1 ./build/tests/test_swarm_equivalence
//
// and say so in the commit message -- a diff here means the refactor
// changed the simulation, which is exactly what this suite exists to catch.
// The COOPNET_AUDIT CI leg runs this same suite with the invariant auditor
// on (config.audit_every = 1), proving the audited optimized engine still
// reproduces the seed baselines with zero invariant violations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/json.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "metrics/trace_sink.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"
#include "util/atomic_file.h"

#include "pinned_configs.h"

#ifndef COOPNET_GOLDEN_DIR
#error "COOPNET_GOLDEN_DIR must point at tests/golden"
#endif

namespace coopnet::sim {
namespace {

// Full traces are committed for the N = 50 BitTorrent and T-Chain cells
// (the mechanisms with the richest transfer machinery), so a divergence
// there points at the exact first differing line. Every other cell pins
// its trace through the line count + FNV-1a hash in the meta file, which
// is the same byte-identity check without megabytes of golden text.
bool trace_committed(const Cell& cell) {
  return cell.n == 50 && cell.variant == Variant::kDefault &&
         (cell.algo == core::Algorithm::kBitTorrent ||
          cell.algo == core::Algorithm::kTChain);
}

struct CellResult {
  std::string report_json;
  std::vector<std::string> trace_lines;
};

CellResult run_cell(const Cell& cell) {
  const SwarmConfig config = cell_config(cell);
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  collector.install(swarm);
  std::ostringstream trace;
  metrics::TraceSink sink(trace);
  sink.chain(&collector);
  swarm.set_observer(&sink);
  swarm.run();

  CellResult result;
  result.report_json = metrics::to_json(metrics::build_report(swarm, collector));
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) result.trace_lines.push_back(line);
  return result;
}

// FNV-1a 64-bit over the newline-joined trace -- a content fingerprint for
// the cells whose full trace is not committed (no cryptographic claim; a
// refactor that perturbs any byte of any line will move it).
std::uint64_t fnv1a64(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& line : lines) {
    for (unsigned char c : line) mix(c);
    mix('\n');
  }
  return h;
}

std::string golden_path(const std::string& file) {
  return std::string(COOPNET_GOLDEN_DIR) + "/" + file;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

void write_file(const std::string& path, const std::string& contents) {
  // Atomic (temp + rename): an interrupted regen can't leave a torn
  // golden file that every later run would diff against.
  ASSERT_NO_THROW(util::write_file_atomic(path, contents))
      << "cannot write " << path;
}

std::string trace_meta(const CellResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"trace_lines\": %zu, \"trace_fnv64\": \"%016llx\"}\n",
                r.trace_lines.size(),
                static_cast<unsigned long long>(fnv1a64(r.trace_lines)));
  return buf;
}

bool regen_requested() {
  const char* env = std::getenv("COOPNET_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

class SwarmEquivalence : public ::testing::TestWithParam<Cell> {};

TEST_P(SwarmEquivalence, MatchesSeedGolden) {
  const Cell cell = GetParam();
  const CellResult result = run_cell(cell);
  const std::string base = cell_name(cell);

  if (regen_requested()) {
    write_file(golden_path(base + ".json"), result.report_json);
    write_file(golden_path(base + ".trace.meta"), trace_meta(result));
    if (trace_committed(cell)) {
      std::string joined;
      for (const auto& line : result.trace_lines) joined += line + "\n";
      write_file(golden_path(base + ".trace.jsonl"), joined);
    }
    GTEST_SKIP() << "regenerated golden " << base;
  }

  std::string golden_json;
  ASSERT_TRUE(read_file(golden_path(base + ".json"), golden_json))
      << "missing golden " << base
      << ".json (run with COOPNET_REGEN_GOLDEN=1 to create)";
  EXPECT_EQ(result.report_json, golden_json)
      << base << ": RunReport JSON diverged from the seed engine";

  std::string golden_meta;
  ASSERT_TRUE(read_file(golden_path(base + ".trace.meta"), golden_meta));
  EXPECT_EQ(trace_meta(result), golden_meta)
      << base << ": trace-sink stream diverged from the seed engine";

  if (trace_committed(cell)) {
    std::string golden_trace;
    ASSERT_TRUE(read_file(golden_path(base + ".trace.jsonl"), golden_trace));
    std::vector<std::string> golden_lines;
    std::istringstream lines(golden_trace);
    std::string line;
    while (std::getline(lines, line)) golden_lines.push_back(line);
    ASSERT_EQ(result.trace_lines.size(), golden_lines.size())
        << base << ": trace line count diverged";
    for (std::size_t i = 0; i < golden_lines.size(); ++i) {
      ASSERT_EQ(result.trace_lines[i], golden_lines[i])
          << base << ": trace line " << i + 1 << " diverged";
    }
  }

#if COOPNET_AUDIT
  // Audit builds re-verified the swarm's invariants at every event while
  // reproducing the golden bytes; surface the check count in the log.
  const SwarmConfig config = cell_config(cell);
  Swarm swarm(config, strategy::make_strategy(config.algorithm));
  ASSERT_NE(swarm.auditor(), nullptr);
#endif
}

INSTANTIATE_TEST_SUITE_P(AllCells, SwarmEquivalence,
                         ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return cell_name(info.param);
                         });

}  // namespace
}  // namespace coopnet::sim
