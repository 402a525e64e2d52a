// coopnet_fleet wire protocol: newline-delimited ASCII frames over TCP.
//
// One frame per line, keyword first, space-separated fields, and -- for
// RESULT -- a trailing payload that is the *exact* journal record line
// exp::render_cell_record produces (journal framing reused verbatim, so
// disk and wire share one tested serializer, and the coordinator can
// append the received bytes straight into its fsync'd journal).
//
//   worker -> coordinator
//     HELLO <proto> <name> <cells> <base_seed> <config_crc>
//                                                join + sweep fingerprint
//     REQUEST                                    ask for a lease
//     RESULT <journal cell line>                 one terminal cell outcome
//     CKPT <index> <hex snapshot>                mid-cell snapshot (v2)
//     PING                                       heartbeat (renews leases)
//     BYE                                        graceful departure
//
//   coordinator -> worker
//     WELCOME <heartbeat_s> <lease_s>            join accepted + cadence
//     CKPT <index> <hex snapshot>                resume bytes, before LEASE
//     LEASE <first> <count>                      lease on [first, first+count)
//     WAIT <seconds>                             nothing grantable yet
//     DONE                                       sweep complete, go home
//     ERROR <message>                            fatal (fingerprint/protocol)
//
// CKPT (protocol v2) carries a sim/checkpoint.h snapshot, lower-case-hex
// encoded so the binary payload stays a single ASCII line. Workers ship
// the latest snapshot of their in-flight cell alongside heartbeats; the
// coordinator keeps the newest one per unfinished cell and replays it to
// the next lessee right before the LEASE frame, so a preempted or killed
// worker's cell resumes mid-run elsewhere instead of restarting. The
// snapshot's own checksums (magic, config fingerprint, per-section CRCs)
// validate the payload end-to-end; a corrupt one is rejected at restore
// and the cell restarts from scratch -- never wrong, only slower.
//
// Frames never contain newlines (journal record lines are single lines
// by construction, hex is newline-free), so framing is exactly "split on
// '\n'".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/socket.h"

namespace coopnet::fleet {

/// Protocol revision sent in HELLO; the coordinator rejects mismatches.
/// v2 added the CKPT frame (mid-cell snapshot relay); v3 added the cells'
/// config CRC to the HELLO fingerprint (exp::SweepFingerprint).
inline constexpr int kProtocolVersion = 3;

/// One parsed frame. Fields beyond `type` are meaningful only for the
/// frame types that carry them (see the map above).
struct Frame {
  enum class Type {
    kHello,
    kWelcome,
    kError,
    kRequest,
    kLease,
    kWait,
    kDone,
    kResult,
    kCkpt,
    kPing,
    kBye,
  };

  Type type = Type::kPing;
  int proto = 0;             // HELLO
  std::string name;          // HELLO worker name; ERROR message
  std::size_t cells = 0;     // HELLO sweep fingerprint
  std::uint64_t base_seed = 0;  // HELLO sweep fingerprint
  std::uint32_t config_crc = 0;  // HELLO sweep fingerprint
  double heartbeat_s = 0.0;  // WELCOME
  double lease_s = 0.0;      // WELCOME
  double wait_s = 0.0;       // WAIT
  std::size_t first = 0;     // LEASE; CKPT cell index
  std::size_t count = 0;     // LEASE
  std::string payload;       // RESULT: journal record line; CKPT: raw
                             // snapshot bytes (hex-decoded by the parser)
};

/// "HELLO" / "LEASE" / ... for diagnostics.
const char* to_string(Frame::Type type);

// Renderers: one complete frame line, WITHOUT the trailing '\n' (the
// send path appends it).
std::string render_hello(const std::string& name, std::size_t cells,
                         std::uint64_t base_seed, std::uint32_t config_crc);
std::string render_welcome(double heartbeat_s, double lease_s);
std::string render_error(const std::string& message);
std::string render_request();
std::string render_lease(std::size_t first, std::size_t count);
std::string render_wait(double seconds);
std::string render_done();
std::string render_result(const std::string& journal_cell_line);
/// `snapshot` is the RAW snapshot byte string; the renderer hex-encodes
/// it (and parse_frame decodes it back), so callers never touch hex.
std::string render_ckpt(std::size_t index, const std::string& snapshot);
std::string render_ping();
std::string render_bye();

/// Lower-case hex codec for the CKPT payload. decode rejects odd-length
/// or non-hex input (returns false, leaves *out* unspecified).
std::string hex_encode(const std::string& bytes);
bool hex_decode(const std::string& hex, std::string* out);

/// Parses one frame line (no trailing newline). Returns false -- with a
/// diagnostic in *error -- on unknown keywords or malformed fields;
/// never throws.
bool parse_frame(const std::string& line, Frame* frame, std::string* error);

/// Incremental '\n'-splitter over a socket receive stream. Feed chunks,
/// pop complete lines; a partial trailing line waits for the next chunk.
class LineBuffer {
 public:
  /// Appends a received chunk.
  void feed(const char* data, std::size_t size) { buf_.append(data, size); }
  /// Extracts the next complete line (newline stripped). Returns false
  /// when no full line is buffered.
  bool next_line(std::string* line);
  /// Bytes still buffered (a partial line, or lines not yet popped).
  std::size_t pending() const { return buf_.size(); }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Sends one frame line (appends '\n'). Returns false on socket error.
bool send_frame(util::Socket& sock, const std::string& line);

}  // namespace coopnet::fleet
