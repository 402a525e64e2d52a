// Fleet wire protocol: render/parse round trips for every frame type,
// malformed-input rejection without throwing, incremental line framing,
// and the RESULT payload's byte-exact reuse of journal record lines.
#include <gtest/gtest.h>

#include <string>

#include "exp/journal.h"
#include "exp/supervise.h"
#include "fleet/protocol.h"

namespace coopnet::fleet {
namespace {

Frame parse_ok(const std::string& line) {
  Frame frame;
  std::string error;
  EXPECT_TRUE(parse_frame(line, &frame, &error)) << line << ": " << error;
  return frame;
}

TEST(FleetProtocolTest, RoundTripsEveryFrameType) {
  Frame f = parse_ok(render_hello("w-3", 42, 0xdeadbeefULL, 0xfeedf00du));
  EXPECT_EQ(f.type, Frame::Type::kHello);
  EXPECT_EQ(f.proto, kProtocolVersion);
  EXPECT_EQ(f.name, "w-3");
  EXPECT_EQ(f.cells, 42u);
  EXPECT_EQ(f.base_seed, 0xdeadbeefULL);
  EXPECT_EQ(f.config_crc, 0xfeedf00du);

  f = parse_ok(render_welcome(2.5, 30.0));
  EXPECT_EQ(f.type, Frame::Type::kWelcome);
  EXPECT_DOUBLE_EQ(f.heartbeat_s, 2.5);
  EXPECT_DOUBLE_EQ(f.lease_s, 30.0);

  f = parse_ok(render_error("sweep fingerprint mismatch: 12 vs 42"));
  EXPECT_EQ(f.type, Frame::Type::kError);
  EXPECT_EQ(f.name, "sweep fingerprint mismatch: 12 vs 42")
      << "ERROR messages may contain spaces";

  EXPECT_EQ(parse_ok(render_request()).type, Frame::Type::kRequest);

  f = parse_ok(render_lease(8, 4));
  EXPECT_EQ(f.type, Frame::Type::kLease);
  EXPECT_EQ(f.first, 8u);
  EXPECT_EQ(f.count, 4u);

  f = parse_ok(render_wait(0.75));
  EXPECT_EQ(f.type, Frame::Type::kWait);
  EXPECT_DOUBLE_EQ(f.wait_s, 0.75);

  EXPECT_EQ(parse_ok(render_done()).type, Frame::Type::kDone);
  EXPECT_EQ(parse_ok(render_ping()).type, Frame::Type::kPing);
  EXPECT_EQ(parse_ok(render_bye()).type, Frame::Type::kBye);

  // CKPT carries arbitrary binary snapshot bytes -- including NUL,
  // newlines, and spaces -- inside the newline-delimited framing.
  const std::string snapshot("COOPCKPT\0\n \xff binary", 19);
  f = parse_ok(render_ckpt(9, snapshot));
  EXPECT_EQ(f.type, Frame::Type::kCkpt);
  EXPECT_EQ(f.first, 9u);
  EXPECT_EQ(f.payload, snapshot)
      << "the hex codec must round-trip snapshot bytes exactly";
}

TEST(FleetProtocolTest, RejectsMalformedLinesWithoutThrowing) {
  const std::string bad[] = {
      "",
      "NONSENSE",
      "HELLO",                       // missing fields
      "HELLO x w 10 7",              // non-numeric proto
      "HELLO 1 w ten 7",             // non-numeric cells
      "HELLO 3 w 10 7",              // missing config_crc
      "HELLO 3 w 10 7 4294967296",   // config_crc beyond 32 bits
      "LEASE 3",                     // missing count
      "LEASE 3 0",                   // zero-length lease
      "LEASE -1 4",                  // negative index
      "WAIT",                        // missing seconds
      "WAIT -0.5",                   // negative wait
      "WELCOME 2.0",                 // missing lease_s
      "RESULT",                      // missing payload
      "lease 0 4",                   // keywords are case-sensitive
      "CKPT",                        // missing index and payload
      "CKPT 3",                      // missing payload
      "CKPT -1 0a",                  // negative index
      "CKPT 3 0a1",                  // odd-length hex
      "CKPT 3 0A1B",                 // upper-case: wire form is canonical
      "CKPT 3 zz",                   // non-hex digits
  };
  for (const std::string& line : bad) {
    Frame frame;
    std::string error;
    EXPECT_FALSE(parse_frame(line, &frame, &error)) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << "no diagnostic for: " << line;
  }
}

TEST(FleetProtocolTest, LineBufferReassemblesArbitraryChunks) {
  const std::string stream = "PING\nLEASE 0 4\nREQUEST\n";
  // Feed one byte at a time: framing must not depend on chunk boundaries.
  LineBuffer buf;
  std::vector<std::string> lines;
  for (char c : stream) {
    buf.feed(&c, 1);
    std::string line;
    while (buf.next_line(&line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "PING");
  EXPECT_EQ(lines[1], "LEASE 0 4");
  EXPECT_EQ(lines[2], "REQUEST");
  EXPECT_EQ(buf.pending(), 0u);

  // A partial trailing line stays buffered until its newline arrives.
  buf.feed("DON", 3);
  std::string line;
  EXPECT_FALSE(buf.next_line(&line));
  buf.feed("E\n", 2);
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "DONE");
}

TEST(FleetProtocolTest, ResultPayloadPreservesJournalRecordBytes) {
  exp::CellOutcome outcome;
  outcome.status = exp::CellOutcome::Status::kFailed;
  outcome.index = 5;
  outcome.seed = 123456789;
  outcome.algorithm = "BitTorrent";
  outcome.error = "threw: bad \"quoted\" thing\twith tabs";
  outcome.wall_seconds = 0.125;
  outcome.events = 4242;

  const std::string record = exp::render_cell_record(outcome);
  const Frame f = parse_ok(render_result(record));
  EXPECT_EQ(f.type, Frame::Type::kResult);
  EXPECT_EQ(f.payload, record)
      << "the wire must carry the journal line byte-for-byte";

  exp::JournalEntry entry;
  ASSERT_TRUE(exp::parse_cell_record(f.payload, &entry));
  EXPECT_EQ(entry.index, 5u);
  EXPECT_EQ(entry.seed, 123456789u);
  EXPECT_EQ(entry.error, outcome.error);
}

}  // namespace
}  // namespace coopnet::fleet
