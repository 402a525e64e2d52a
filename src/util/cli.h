// Tiny command-line option parser for the bench, example and tool binaries.
//
// Recognised syntax: `--key=value`, `--key value`, and bare `--flag`.
// Anything not starting with `--` is a positional argument.
//
// A binary declares every flag it reads, then hands its body to run():
// `--help` prints the usage built from the declarations and exits 0, an
// undeclared flag or a stray positional argument exits 2 naming the
// nearest declared flag, and a bad value (the body throws) exits 1.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace coopnet::util {

/// One declared flag: its help section, its name without "--", the
/// value's placeholder ("" for a switch that takes no value) and one line
/// of help.
struct CliFlag {
  std::string section;
  std::string name;
  std::string value;
  std::string help;
};

/// Parsed command line.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Adds flags this binary reads. Declaring a name twice is a
  /// programming error (std::logic_error).
  void declare(const std::vector<CliFlag>& flags);

  /// The --help text: `about`, then the declared flags grouped by section.
  std::string usage(const std::string& about) const;

  /// Runs a binary's body under the strict protocol described above and
  /// returns the process exit code.
  int run(const std::string& about, int (*body)(const Cli&)) const;

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`, if one was supplied.
  std::optional<std::string> get(const std::string& name) const;

  /// Typed getters with defaults; throw std::invalid_argument on a
  /// malformed value, including an empty one (`--n=` or a bare `--n`).
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Value of `--name` as any std::uint64_t (seeds): digits only, so a
  /// sign or an overflow is an error instead of a wrap.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;

  /// get_double with range validation: the parsed value (or the fallback,
  /// which is NOT exempt) must lie in [min_value, max_value]. Rates and
  /// probabilities go through this so a negative --arrival-rate or a
  /// probability of 1.5 fails fast with the legal range in the message
  /// instead of silently producing a nonsense scenario.
  double get_double_in(const std::string& name, double fallback,
                       double min_value, double max_value) const;

  /// Value of `--name` parsed as a population/size count in
  /// [1, max_value]. These counts size allocations, so a zero, negative,
  /// non-numeric, or overflowing value must fail fast with an actionable
  /// message instead of reaching an allocator. Requires an all-digit
  /// token (no sign, no numeric prefix like "100junk").
  std::size_t get_count(const std::string& name, std::size_t fallback,
                        std::size_t max_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  /// The declaration of `--name`, or nullptr.
  const CliFlag* declared(const std::string& name) const;
  /// Value of a flag that needs one: nullopt when absent; throws
  /// std::invalid_argument when present without a value.
  std::optional<std::string> value(const std::string& name) const;
  /// The exit-2 diagnostic for the first undeclared flag or stray
  /// argument, or "" when the command line is clean.
  std::string undeclared() const;

  std::string program_;
  std::map<std::string, std::string> options_;  // flag -> value ("" if none)
  std::vector<std::string> positional_;
  std::vector<CliFlag> declared_;
};

}  // namespace coopnet::util
