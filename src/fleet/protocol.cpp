#include "fleet/protocol.h"

#include <sstream>

#include "util/parse.h"

namespace coopnet::fleet {

namespace {

/// Splits `line` into the keyword and the remainder after one space.
void split_keyword(const std::string& line, std::string* keyword,
                   std::string* rest) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    *keyword = line;
    rest->clear();
  } else {
    *keyword = line.substr(0, sp);
    *rest = line.substr(sp + 1);
  }
}

bool next_token(std::istringstream& in, std::string* token) {
  return static_cast<bool>(in >> *token);
}

// Wire numbers use the shared strict parsers: negative, hex, non-finite
// or junk-suffixed tokens all reject the frame instead of wrapping
// (strtoull parses "-1" as ULLONG_MAX) or smuggling in inf/nan deadlines.
bool parse_u64_token(std::istringstream& in, std::uint64_t* out) {
  std::string token;
  return next_token(in, &token) && util::parse_u64(token, out);
}

bool parse_double_token(std::istringstream& in, double* out) {
  std::string token;
  return next_token(in, &token) && util::parse_double(token, out);
}

}  // namespace

const char* to_string(Frame::Type type) {
  switch (type) {
    case Frame::Type::kHello:
      return "HELLO";
    case Frame::Type::kWelcome:
      return "WELCOME";
    case Frame::Type::kError:
      return "ERROR";
    case Frame::Type::kRequest:
      return "REQUEST";
    case Frame::Type::kLease:
      return "LEASE";
    case Frame::Type::kWait:
      return "WAIT";
    case Frame::Type::kDone:
      return "DONE";
    case Frame::Type::kResult:
      return "RESULT";
    case Frame::Type::kCkpt:
      return "CKPT";
    case Frame::Type::kPing:
      return "PING";
    case Frame::Type::kBye:
      return "BYE";
  }
  return "unknown";
}

std::string render_hello(const std::string& name, std::size_t cells,
                         std::uint64_t base_seed, std::uint32_t config_crc) {
  std::ostringstream os;
  os << "HELLO " << kProtocolVersion << " " << name << " " << cells << " "
     << base_seed << " " << config_crc;
  return os.str();
}

std::string render_welcome(double heartbeat_s, double lease_s) {
  return "WELCOME " + util::g17(heartbeat_s) + " " + util::g17(lease_s);
}

std::string render_error(const std::string& message) {
  return "ERROR " + message;
}

std::string render_request() { return "REQUEST"; }

std::string render_lease(std::size_t first, std::size_t count) {
  std::ostringstream os;
  os << "LEASE " << first << " " << count;
  return os.str();
}

std::string render_wait(double seconds) { return "WAIT " + util::g17(seconds); }

std::string render_done() { return "DONE"; }

std::string render_result(const std::string& journal_cell_line) {
  return "RESULT " + journal_cell_line;
}

std::string render_ckpt(std::size_t index, const std::string& snapshot) {
  std::string line = "CKPT " + std::to_string(index) + " ";
  line += hex_encode(snapshot);
  return line;
}

std::string render_ping() { return "PING"; }

std::string render_bye() { return "BYE"; }

std::string hex_encode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0x0F]);
  }
  return out;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // upper-case rejected too: the wire form is canonical
}

}  // namespace

bool hex_decode(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool parse_frame(const std::string& line, Frame* frame, std::string* error) {
  std::string keyword;
  std::string rest;
  split_keyword(line, &keyword, &rest);
  *frame = Frame{};

  const auto fail = [error, &keyword](const char* what) {
    *error = keyword + ": " + what;
    return false;
  };

  if (keyword == "HELLO") {
    frame->type = Frame::Type::kHello;
    std::istringstream in(rest);
    std::uint64_t proto = 0;
    std::uint64_t cells = 0;
    std::uint64_t config_crc = 0;
    if (!parse_u64_token(in, &proto) || !next_token(in, &frame->name) ||
        !parse_u64_token(in, &cells) ||
        !parse_u64_token(in, &frame->base_seed) ||
        !parse_u64_token(in, &config_crc) || config_crc > 0xFFFFFFFFu) {
      return fail("expected <proto> <name> <cells> <base_seed> <config_crc>");
    }
    frame->proto = static_cast<int>(proto);
    frame->cells = static_cast<std::size_t>(cells);
    frame->config_crc = static_cast<std::uint32_t>(config_crc);
    return true;
  }
  if (keyword == "WELCOME") {
    frame->type = Frame::Type::kWelcome;
    std::istringstream in(rest);
    if (!parse_double_token(in, &frame->heartbeat_s) ||
        !parse_double_token(in, &frame->lease_s)) {
      return fail("expected <heartbeat_s> <lease_s>");
    }
    return true;
  }
  if (keyword == "ERROR") {
    frame->type = Frame::Type::kError;
    frame->name = rest;
    return true;
  }
  if (keyword == "REQUEST") {
    frame->type = Frame::Type::kRequest;
    return true;
  }
  if (keyword == "LEASE") {
    frame->type = Frame::Type::kLease;
    std::istringstream in(rest);
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (!parse_u64_token(in, &first) || !parse_u64_token(in, &count) ||
        count == 0) {
      return fail("expected <first> <count >= 1>");
    }
    frame->first = static_cast<std::size_t>(first);
    frame->count = static_cast<std::size_t>(count);
    return true;
  }
  if (keyword == "WAIT") {
    frame->type = Frame::Type::kWait;
    std::istringstream in(rest);
    if (!parse_double_token(in, &frame->wait_s) || frame->wait_s < 0.0) {
      return fail("expected <seconds >= 0>");
    }
    return true;
  }
  if (keyword == "DONE") {
    frame->type = Frame::Type::kDone;
    return true;
  }
  if (keyword == "RESULT") {
    frame->type = Frame::Type::kResult;
    if (rest.empty()) return fail("missing journal record payload");
    frame->payload = rest;
    return true;
  }
  if (keyword == "CKPT") {
    frame->type = Frame::Type::kCkpt;
    // Manual split instead of istringstream: the hex payload can be
    // megabytes and must not be copied through a stream.
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) {
      return fail("expected <index> <hex snapshot>");
    }
    std::uint64_t index = 0;
    if (!util::parse_u64(rest.substr(0, sp), &index)) {
      return fail("bad cell index");
    }
    frame->first = static_cast<std::size_t>(index);
    const std::string hex = rest.substr(sp + 1);
    if (hex.empty() || !hex_decode(hex, &frame->payload)) {
      // Corruption in transit is the snapshot checksums' job; this only
      // rejects framing-level damage (truncated or non-hex payload).
      return fail("snapshot payload is not even-length lower-case hex");
    }
    return true;
  }
  if (keyword == "PING") {
    frame->type = Frame::Type::kPing;
    return true;
  }
  if (keyword == "BYE") {
    frame->type = Frame::Type::kBye;
    return true;
  }
  *error = "unknown frame keyword: " + keyword;
  return false;
}

bool LineBuffer::next_line(std::string* line) {
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    // Compact consumed bytes so the buffer doesn't grow without bound.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return false;
  }
  line->assign(buf_, pos_, nl - pos_);
  pos_ = nl + 1;
  return true;
}

bool send_frame(util::Socket& sock, const std::string& line) {
  return sock.send_all(line + "\n");
}

}  // namespace coopnet::fleet
