// Property tests for the shared hardened numeric parsers, cross-checked
// at all three former call sites (run-journal records, fleet wire
// frames, CLI option values). The headline defect: bare strtoull wraps
// a leading '-' ("-1" parses as ULLONG_MAX), so before the shared
// parser a hand-edited journal field like "index":-1 loaded as a huge
// cell index instead of being rejected.
#include "util/parse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exp/journal.h"
#include "fleet/protocol.h"
#include "util/cli.h"
#include "util/crc32.h"

namespace coopnet {
namespace {

using util::DoubleFormat;
using util::parse_double;
using util::parse_u64;

// ---------------------------------------------------------------------------
// parse_u64

TEST(ParseU64, AcceptsPlainDecimalAndRoundTrips) {
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"0", 0},
      {"1", 1},
      {"007", 7},
      {"4294967296", 4294967296ULL},
      {"18446744073709551615", std::numeric_limits<std::uint64_t>::max()},
  };
  for (const auto& [token, want] : cases) {
    std::uint64_t got = 0;
    EXPECT_TRUE(parse_u64(token, &got)) << token;
    EXPECT_EQ(got, want) << token;
  }
}

std::vector<std::string> adversarial_u64_tokens() {
  return {
      "",        "-1",     "-0",       "+1",    " 1",     "1 ",
      "0x10",    "0X10",   "10h",      "1e3",   "1.0",    "one",
      "--1",     "1-",     "\t7",      "7\n",   "18446744073709551616",
      "99999999999999999999", "0b101", "٣",     "∞",      "null",
  };
}

TEST(ParseU64, RejectsAdversarialTokensWithoutWritingOut) {
  for (const auto& token : adversarial_u64_tokens()) {
    std::uint64_t out = 0xDEADBEEF;
    EXPECT_FALSE(parse_u64(token, &out)) << "accepted: '" << token << "'";
    EXPECT_EQ(out, 0xDEADBEEF) << "wrote through on: '" << token << "'";
  }
}

// ---------------------------------------------------------------------------
// parse_double

TEST(ParseDouble, AcceptsFiniteGrammar) {
  const std::pair<const char*, double> cases[] = {
      {"0", 0.0},     {"-0", -0.0},     {"12", 12.0},   {"1.5", 1.5},
      {".5", 0.5},    {"1.", 1.0},      {"+2", 2.0},    {"1e-3", 1e-3},
      {"1E3", 1e3},   {"-2.5e+2", -250.0},
      {"2.2250738585072014e-308", 2.2250738585072014e-308},
  };
  for (const auto& [token, want] : cases) {
    double got = -1.0;
    EXPECT_TRUE(parse_double(token, &got)) << token;
    EXPECT_EQ(got, want) << token;
  }
}

TEST(ParseDouble, G17RoundTripsEveryFiniteShape) {
  // The journal renderer prints %.17g; its loader must re-read exactly.
  const double values[] = {0.0,     -0.0,   1.0 / 3.0, 1e308,
                           5e-324,  1e-308, 123456789.123456789,
                           -2.5e-7, 4000.0};
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double got = 0.0;
    ASSERT_TRUE(parse_double(buf, &got, DoubleFormat::kAllowNonFinite))
        << buf;
    EXPECT_EQ(std::signbit(got), std::signbit(v)) << buf;
    EXPECT_EQ(got, v) << buf;
  }
}

TEST(ParseDouble, RejectsJunkInBothModes) {
  const char* tokens[] = {
      "",     " 1.5",  "1.5 ",  "1.5x", "--1",  "+-1",  ".",    "+",
      "-",    "e3",    "1e",    "1e+",  "0x1p4", "0X2", "1,5",  "one",
      "nan(0x1)", "infinite", "NaNs",
  };
  for (const char* token : tokens) {
    double out = 42.0;
    EXPECT_FALSE(parse_double(token, &out)) << "finite accepted: " << token;
    EXPECT_FALSE(parse_double(token, &out, DoubleFormat::kAllowNonFinite))
        << "nonfinite accepted: " << token;
    EXPECT_EQ(out, 42.0) << "wrote through on: " << token;
  }
}

TEST(ParseDouble, NonFiniteSpellingsAreModeGated) {
  // Exactly what printf %g emits for non-finite doubles, plus strtod's
  // long form -- accepted only when the caller opts in (the journal).
  const char* tokens[] = {"inf",  "-inf", "+inf", "INF",     "Infinity",
                          "-infinity", "nan", "-nan", "NAN"};
  for (const char* token : tokens) {
    double out = 0.0;
    EXPECT_FALSE(parse_double(token, &out)) << token;
    ASSERT_TRUE(parse_double(token, &out, DoubleFormat::kAllowNonFinite))
        << token;
    EXPECT_FALSE(std::isfinite(out)) << token;
  }
  // Overflow parses to +/-inf: non-finite, so finite mode rejects it.
  double out = 0.0;
  EXPECT_FALSE(parse_double("1e999", &out));
}

// ---------------------------------------------------------------------------
// Call site 1: journal cell records. A negative or wrapped "index" must
// make the record unparseable (torn), not load as a huge cell index.

// Schema-2 records end with a crc field over the preceding bytes; the
// hand-crafted lines here get a valid one so the parsers under test see
// the adversarial TOKEN, not a checksum failure.
std::string with_crc(const std::string& line) {
  const std::string prefix = line.substr(0, line.size() - 1);
  return prefix + ",\"crc\":" + std::to_string(util::crc32(prefix)) + "}";
}

std::string cell_line_with_index(const std::string& index_token) {
  return with_crc(
      "{\"kind\":\"cell\",\"index\":" + index_token +
      ",\"seed\":9,\"algorithm\":\"bittorrent\",\"status\":\"failed\","
      "\"error\":\"x\",\"wall_s\":0.5,\"events\":12}");
}

TEST(ParseCallSites, JournalRejectsNegativeAndWrappedIndices) {
  exp::JournalEntry entry;
  ASSERT_TRUE(exp::parse_cell_record(cell_line_with_index("3"), &entry));
  EXPECT_EQ(entry.index, 3u);

  for (const auto& bad : adversarial_u64_tokens()) {
    if (bad.find_first_of("\n\"{},") != std::string::npos) continue;
    exp::JournalEntry e;
    EXPECT_FALSE(exp::parse_cell_record(cell_line_with_index(bad), &e))
        << "journal accepted index token: '" << bad << "'";
  }
}

TEST(ParseCallSites, JournalStillAcceptsNonFiniteScalars) {
  // The journal's own renderer writes %.17g, which emits "nan"/"inf" for
  // ratio metrics with zero denominators; the loader must keep reading
  // them (backward compatibility with existing journals).
  std::string line = with_crc(
      "{\"kind\":\"cell\",\"index\":0,\"seed\":9,\"algorithm\":\"bt\","
      "\"status\":\"failed\",\"error\":\"\",\"wall_s\":nan,\"events\":1}");
  exp::JournalEntry entry;
  ASSERT_TRUE(exp::parse_cell_record(line, &entry));
  EXPECT_TRUE(std::isnan(entry.wall_seconds));
}

// ---------------------------------------------------------------------------
// Call site 2: fleet wire frames.

TEST(ParseCallSites, FleetLeaseRejectsAdversarialCellIndices) {
  fleet::Frame frame;
  std::string error;
  ASSERT_TRUE(fleet::parse_frame("LEASE 5 2", &frame, &error)) << error;
  EXPECT_EQ(frame.first, 5u);
  EXPECT_EQ(frame.count, 2u);

  for (const auto& bad : adversarial_u64_tokens()) {
    if (bad.find_first_of(" \t\n") != std::string::npos) continue;
    if (bad.empty()) continue;  // "LEASE  2" collapses under >> anyway
    fleet::Frame f;
    std::string err;
    EXPECT_FALSE(fleet::parse_frame("LEASE " + bad + " 2", &f, &err))
        << "fleet accepted first-cell token: '" << bad << "'";
  }
}

TEST(ParseCallSites, FleetWelcomeRejectsNonFiniteDurations) {
  fleet::Frame frame;
  std::string error;
  ASSERT_TRUE(fleet::parse_frame("WELCOME 2.5 30", &frame, &error)) << error;
  for (const char* bad : {"nan", "inf", "-inf", "0x1p4", "3..0", "1e"}) {
    fleet::Frame f;
    std::string err;
    EXPECT_FALSE(
        fleet::parse_frame(std::string("WELCOME ") + bad + " 30", &f, &err))
        << "fleet accepted heartbeat token: '" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Call site 3: CLI option values.

util::Cli make_cli(const std::string& name, const std::string& value) {
  const std::string flag = "--" + name;
  const char* argv[] = {"prog", flag.c_str(), value.c_str()};
  return util::Cli(3, argv);
}

TEST(ParseCallSites, CliCountRejectsAdversarialTokens) {
  EXPECT_EQ(make_cli("n", "250").get_count("n", 1, 100000), 250u);
  for (const auto& bad : adversarial_u64_tokens()) {
    if (bad.rfind("--", 0) == 0) continue;  // parsed as a flag, not a value
    if (bad.empty()) continue;  // a missing value falls back to the default
    EXPECT_THROW(make_cli("n", bad).get_count("n", 1, 100000),
                 std::invalid_argument)
        << "cli accepted count token: '" << bad << "'";
  }
}

TEST(ParseCallSites, CliDoubleRejectsNonFiniteAndHex) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(
      make_cli("horizon", "2.5").get_double_in("horizon", 0.0, -inf, inf),
      2.5);
  for (const char* bad : {"nan", "inf", "-inf", "0x1p4", "1.5x", "1e999"}) {
    EXPECT_THROW(make_cli("horizon", bad).get_double_in("horizon", 0.0,
                                                        -inf, inf),
                 std::invalid_argument)
        << "cli accepted double token: '" << bad << "'";
  }
}

}  // namespace
}  // namespace coopnet
