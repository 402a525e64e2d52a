// Hardened numeric token parsing, shared by every path that reads
// numbers out of untrusted or corruptible text: run-journal records
// (exp/journal.cpp), fleet wire frames (fleet/protocol.cpp), and CLI
// option values (util/cli.cpp, the config schema's flags), the last
// checked against a Range.
//
// Why not bare strtoull/strtod: strtoull silently *wraps* a leading '-'
// ("-1" parses as ULLONG_MAX), accepts leading whitespace and "0x"
// prefixes, and saturates on overflow without failing unless errno is
// checked; strtod additionally accepts hex-floats ("0x1p4") and the
// non-finite spellings everywhere. A hand-edited or corrupted journal
// field like "index":-1 must be rejected as torn, not loaded as a huge
// cell index. These helpers accept exactly the grammar our own
// renderers emit and nothing else.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace coopnet::util {

/// Strict decimal u64: the token must be one or more ASCII digits and
/// nothing else (no sign, no whitespace, no "0x", no exponent), and the
/// value must fit std::uint64_t. Returns false otherwise; *out is
/// written only on success.
bool parse_u64(const std::string& token, std::uint64_t* out);

/// Whether parse_double accepts the IEEE non-finite spellings.
enum class DoubleFormat {
  /// Finite decimal / scientific notation only. For wire frames and CLI
  /// values, where "inf"/"nan" is always a mistake.
  kFinite,
  /// Additionally accepts the spellings printf %g emits for non-finite
  /// values ("inf", "-nan", ...). For journal scalars, whose renderer
  /// legitimately writes them (e.g. a NaN susceptibility ratio).
  kAllowNonFinite,
};

/// Strict double: optional sign, then a decimal or scientific-notation
/// number ("12", "1.5", ".5", "1.", "1e-3"), with no whitespace, no
/// trailing junk, and no hex-float forms ("0x1p4" is rejected). With
/// DoubleFormat::kAllowNonFinite the case-insensitive spellings
/// "inf"/"infinity"/"nan" (optionally signed, as printf %g emits them)
/// are accepted too. Returns false otherwise; *out is written only on
/// success. Values overflowing double parse as +/-infinity and are
/// therefore rejected under kFinite.
bool parse_double(const std::string& token, double* out,
                  DoubleFormat format = DoubleFormat::kFinite);

/// The legal values of a setting: finite and within [lo, hi], an open
/// end excluded.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const;
  /// "a number in (0, inf)"; for an integer setting (`integer_max` > 0)
  /// "an integer in [2, 100000000]", with hi capped at `integer_max`.
  std::string describe(std::uint64_t integer_max = 0) const;
};

/// A setting's text as a non-negative integer: digits only, at most `max` and
/// in `range` (a sign, junk or an overflow fails instead of wrapping).
std::optional<std::uint64_t> parse_integer(const std::string& text,
                                           std::uint64_t max,
                                           const Range& range);
/// A setting's text as a finite number (parse_double) in `range`.
std::optional<double> parse_number(const std::string& text,
                                   const Range& range);
/// The shortest decimal that parses back to exactly `v`.
std::string shortest(double v);
/// printf's "%.17g" (max_digits10 significant digits): always enough for
/// strtod to return exactly `v`, at a fixed precision, so the text of a
/// value never depends on its neighbours. Non-finite values print as
/// printf spells them ("inf", "-nan"). Journal scalars, fleet frames,
/// trace CSV times and the fluid JSON all render doubles through it.
std::string g17(double v);

}  // namespace coopnet::util
