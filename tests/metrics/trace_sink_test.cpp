// Streaming JSONL trace sink: line format, per-event streaming, chaining,
// file output, time order and exactly-once delivery under faults.
#include "metrics/trace_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/run_metrics.h"
#include "sim/faults.h"
#include "strategy/factory.h"

namespace coopnet::metrics {
namespace {

sim::SwarmConfig sink_config() {
  auto config = sim::SwarmConfig::small(core::Algorithm::kAltruism, 61);
  config.n_peers = 20;
  return config;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(TraceSink, WritesOneJsonObjectPerLine) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.write({TraceEvent::Kind::kTransfer, 12.5, 4, 17, 3, 131072, false});
  sink.write({TraceEvent::Kind::kTransfer, 100000.0625, 4, 9, 5, 131072,
              true});
  sink.write({TraceEvent::Kind::kBootstrap, 0.5, 4, sim::kNoPeer,
              sim::kNoPiece, 0, false});
  sink.write({TraceEvent::Kind::kFinish, 123456.78125, 4, sim::kNoPeer,
              sim::kNoPiece, 0, false});
  EXPECT_EQ(sink.events_written(), 4u);
  EXPECT_EQ(
      out.str(),
      "{\"kind\":\"transfer\",\"time\":12.5,\"peer\":4,\"from\":17,"
      "\"piece\":3,\"bytes\":131072,\"locked\":false}\n"
      "{\"kind\":\"transfer\",\"time\":100000.0625,\"peer\":4,\"from\":9,"
      "\"piece\":5,\"bytes\":131072,\"locked\":true}\n"
      "{\"kind\":\"bootstrap\",\"time\":0.5,\"peer\":4}\n"
      "{\"kind\":\"finish\",\"time\":123456.78125,\"peer\":4}\n");
}

// Counts what a chained observer receives and records each event's time,
// in delivery order.
struct CountingObserver : sim::SwarmObserver {
  std::size_t transfers = 0, bootstraps = 0, finishes = 0;
  sim::Bytes bytes = 0;
  std::vector<double> times;
  void on_transfer(const sim::Swarm&, const sim::Transfer& t) override {
    ++transfers;
    bytes += t.bytes;
    times.push_back(t.end);
  }
  void on_bootstrap(const sim::Swarm& swarm, sim::ConstPeer) override {
    ++bootstraps;
    times.push_back(swarm.engine().now());
  }
  void on_finish(const sim::Swarm& swarm, sim::ConstPeer) override {
    ++finishes;
    times.push_back(swarm.engine().now());
  }
};

std::size_t count_kind(const std::vector<std::string>& lines,
                       const std::string& kind) {
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find("\"kind\":\"" + kind + "\"") != std::string::npos) ++n;
  }
  return n;
}

// The value of a line's "time" field, parsed back to a double.
double time_of(const std::string& line) {
  const auto start = line.find("\"time\":") + 7;
  return std::stod(line.substr(start, line.find(',', start) - start));
}

TEST(TraceSink, StreamsEveryEventOfARun) {
  auto config = sink_config();
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::ostringstream out;
  TraceSink sink(out);
  CountingObserver counter;
  sink.chain(&counter);
  swarm.set_observer(&sink);
  swarm.run();

  // One JSON object per line, one line per event the observer saw.
  const auto lines = lines_of(out.str());
  EXPECT_EQ(sink.events_written(), lines.size());
  ASSERT_EQ(lines.size(),
            counter.transfers + counter.bootstraps + counter.finishes);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count_kind(lines, "transfer"), counter.transfers);
  // Every leecher bootstraps and finishes under altruism.
  EXPECT_EQ(count_kind(lines, "bootstrap"), swarm.leechers());
  EXPECT_EQ(count_kind(lines, "finish"), swarm.leechers());
  // The traced bytes are the swarm's raw download accounting.
  sim::Bytes raw = 0;
  for (const auto& p : swarm.peers()) raw += p.downloaded_raw_bytes();
  EXPECT_EQ(counter.bytes, raw);
}

// chain() must deliver every event exactly once to both the file and the
// chained observer -- including under faults, where retries, churn and
// vanished uploaders produce completion events that must NOT be
// double-reported.
TEST(TraceSink, ChainDeliversEveryEventExactlyOnceUnderFaults) {
  auto config = sink_config();
  config.faults = sim::moderate_churn();
  config.faults.transfer_loss_rate = 0.10;
  config.faults.transfer_stall_rate = 0.05;
  config.faults.stall_timeout = 20.0;
  config.max_time = 20000.0;
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::ostringstream out;
  TraceSink sink(out);
  CountingObserver counter;
  sink.chain(&counter);
  swarm.set_observer(&sink);
  swarm.run();

  const auto lines = lines_of(out.str());
  ASSERT_GT(counter.transfers, 0u);
  EXPECT_EQ(count_kind(lines, "transfer"), counter.transfers);
  EXPECT_EQ(count_kind(lines, "bootstrap"), counter.bootstraps);
  EXPECT_EQ(count_kind(lines, "finish"), counter.finishes);
  EXPECT_EQ(lines.size(),
            counter.transfers + counter.bootstraps + counter.finishes);
  // Delivered payload seen by observers matches the swarm's goodput ledger.
  EXPECT_EQ(counter.bytes, swarm.fault_stats().goodput_bytes);
}

// Times are written at %.17g, so each parses back to the exact double the
// simulator delivered -- late in a long run too, where six significant
// digits would collapse sub-second spacing -- and they never go backwards.
TEST(TraceSink, TimesParseBackExactlyAndInOrder) {
  auto config = sink_config();
  config.max_time = 200000.0;
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::ostringstream out;
  TraceSink sink(out);
  CountingObserver counter;
  sink.chain(&counter);
  swarm.set_observer(&sink);
  swarm.run();

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), counter.times.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const double t = time_of(lines[i]);
    EXPECT_EQ(t, counter.times[i]) << "line " << i;
    EXPECT_GE(t, prev) << "line " << i;
    prev = t;
  }
}

TEST(TraceSink, ChainsToRunMetricsUnderFaults) {
  auto config = sink_config();
  config.faults = sim::moderate_churn();
  config.faults.transfer_loss_rate = 0.10;
  config.max_time = 20000.0;
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::ostringstream out;
  TraceSink sink(out);
  RunMetrics run_metrics;
  run_metrics.install(swarm);
  sink.chain(&run_metrics);
  swarm.set_observer(&sink);
  swarm.run();
  // The chained collector saw the finishes the sink wrote.
  std::size_t finish_lines = 0;
  for (const auto& line : lines_of(out.str())) {
    if (line.find("\"kind\":\"finish\"") != std::string::npos) {
      ++finish_lines;
    }
  }
  EXPECT_EQ(finish_lines, run_metrics.completion_times().size());
  EXPECT_GT(finish_lines, 0u);
}

TEST(TraceSink, TransfersCanBeDisabled) {
  auto config = sink_config();
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  std::ostringstream out;
  TraceSink sink(out, /*transfers_enabled=*/false);
  swarm.set_observer(&sink);
  swarm.run();
  EXPECT_GT(sink.events_written(), 0u);
  for (const auto& line : lines_of(out.str())) {
    EXPECT_EQ(line.find("\"kind\":\"transfer\""), std::string::npos);
  }
}

TEST(TraceSink, WritesToFile) {
  const std::string path =
      ::testing::TempDir() + "coopnet_trace_sink_test.jsonl";
  auto config = sink_config();
  {
    sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
    TraceSink sink(path);
    swarm.set_observer(&sink);
    swarm.run();
    EXPECT_GT(sink.events_written(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t count = 0;
  std::string line;
  while (std::getline(in, line)) ++count;
  EXPECT_GT(count, 0u);
  std::remove(path.c_str());
}

TEST(TraceSink, ThrowsOnUnopenablePath) {
  EXPECT_THROW(TraceSink("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace coopnet::metrics
