#include "util/parse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace coopnet::util {

bool parse_u64(const std::string& token, std::uint64_t* out) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    return false;  // rejects "", "-1", "+1", " 1", "0x10", "1e3"
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

namespace {

bool ascii_ieq(const char* a, const char* b) {
  for (; *a && *b; ++a, ++b) {
    if (std::tolower(static_cast<unsigned char>(*a)) !=
        std::tolower(static_cast<unsigned char>(*b))) {
      return false;
    }
  }
  return *a == '\0' && *b == '\0';
}

// The finite grammar strtod accepts is wider than ours (leading
// whitespace, hex-floats, "inf"/"nan"). Validate the token shape first,
// then let strtod do the value conversion on the already-vetted string:
//   [+-]? ( digits [. digits?]? | . digits ) ( [eE] [+-]? digits )?
bool finite_decimal_shape(const char* s) {
  if (*s == '+' || *s == '-') ++s;
  const char* mantissa = s;
  bool saw_digit = false;
  while (std::isdigit(static_cast<unsigned char>(*s))) {
    ++s;
    saw_digit = true;
  }
  if (*s == '.') {
    ++s;
    while (std::isdigit(static_cast<unsigned char>(*s))) {
      ++s;
      saw_digit = true;
    }
  }
  if (!saw_digit || s == mantissa) return false;
  if (*s == 'e' || *s == 'E') {
    ++s;
    if (*s == '+' || *s == '-') ++s;
    if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
    while (std::isdigit(static_cast<unsigned char>(*s))) ++s;
  }
  return *s == '\0';
}

bool nonfinite_shape(const char* s) {
  if (*s == '+' || *s == '-') ++s;
  // Exactly the spellings printf %g produces ("inf", "nan") plus the
  // strtod-recognised long form; no nan(...) payloads.
  return ascii_ieq(s, "inf") || ascii_ieq(s, "infinity") ||
         ascii_ieq(s, "nan");
}

}  // namespace

bool parse_double(const std::string& token, double* out, DoubleFormat format) {
  const char* s = token.c_str();
  const bool nonfinite = nonfinite_shape(s);
  if (nonfinite) {
    if (format != DoubleFormat::kAllowNonFinite) return false;
  } else if (!finite_decimal_shape(s)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s, &end);
  if (end != s + token.size()) return false;
  // ERANGE covers both overflow (HUGE_VAL) and underflow (denormal/0);
  // underflow is a faithful best-effort value, overflow is not.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return false;
  }
  *out = value;
  return true;
}


bool Range::contains(double v) const {
  return std::isfinite(v) && (lo_open ? v > lo : v >= lo) &&
         (hi_open ? v < hi : v <= hi);
}

std::string Range::describe(std::uint64_t integer_max) const {
  if (integer_max > 0) {
    const double first = lo_open ? lo + 1.0 : lo;
    return "an integer in [" +
           std::to_string(static_cast<std::uint64_t>(std::max(first, 0.0))) +
           ", " +
           std::to_string(hi < static_cast<double>(integer_max)
                              ? static_cast<std::uint64_t>(hi)
                              : integer_max) +
           "]";
  }
  return std::string("a number in ") + (lo_open ? "(" : "[") + shortest(lo) +
         ", " + shortest(hi) + (hi_open || std::isinf(hi) ? ")" : "]");
}

std::optional<std::uint64_t> parse_integer(const std::string& text,
                                           std::uint64_t max,
                                           const Range& range) {
  std::uint64_t out = 0;
  if (!parse_u64(text, &out) || out > max ||
      !range.contains(static_cast<double>(out))) {
    return std::nullopt;
  }
  return out;
}

std::optional<double> parse_number(const std::string& text,
                                   const Range& range) {
  double out = 0.0;
  if (!parse_double(text, &out) || !range.contains(out)) return std::nullopt;
  return out;
}

std::string shortest(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace coopnet::util
