#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace coopnet::util {

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// Appends `text` word-wrapped at 79 columns, continuation lines starting
/// at `column` like the first.
void append_wrapped(std::string& out, const std::string& text,
                    std::size_t column) {
  std::size_t width = column;
  std::istringstream words(text);
  for (std::string word; words >> word; width += word.size()) {
    if (width > column && width + 1 + word.size() > 79) {
      out += "\n" + std::string(column, ' ');
      width = column;
    } else if (width > column) {
      out += ' ';
      ++width;
    }
    out += word;
  }
}

std::invalid_argument bad_value(const std::string& name,
                                const std::string& text,
                                const std::string& expected) {
  return std::invalid_argument("Cli: --" + name + "=" + text +
                               " is invalid (expected " + expected + ")");
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token unless it is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

const CliFlag* Cli::declared(const std::string& name) const {
  const auto it =
      std::find_if(declared_.begin(), declared_.end(),
                   [&name](const CliFlag& f) { return f.name == name; });
  return it == declared_.end() ? nullptr : &*it;
}

void Cli::declare(const std::vector<CliFlag>& flags) {
  for (const CliFlag& flag : flags) {
    if (declared(flag.name) != nullptr) {
      throw std::logic_error("Cli: --" + flag.name + " declared twice");
    }
    declared_.push_back(flag);
  }
}

std::string Cli::usage(const std::string& about) const {
  std::string out = about + "\n";
  std::vector<std::string> sections;
  for (const CliFlag& flag : declared_) {
    if (std::find(sections.begin(), sections.end(), flag.section) ==
        sections.end()) {
      sections.push_back(flag.section);
    }
  }
  constexpr std::size_t kHelpColumn = 23;
  for (const std::string& section : sections) {
    out += "\n" + section + ":\n";
    for (const CliFlag& flag : declared_) {
      if (flag.section != section) continue;
      std::string line = "  --" + flag.name;
      if (!flag.value.empty()) line += " " + flag.value;
      if (line.size() + 1 < kHelpColumn) {
        line.resize(kHelpColumn, ' ');
      } else {
        line += "\n" + std::string(kHelpColumn, ' ');
      }
      append_wrapped(line, flag.help, kHelpColumn);
      out += line + "\n";
    }
  }
  return out;
}

std::string Cli::undeclared() const {
  for (const auto& [name, value] : options_) {
    if (name == "help" || declared(name) != nullptr) continue;
    // A declared flag the name is a prefix of ("--trace" for
    // "--trace-out") is nearer than any edit.
    const auto distance = [&name](const std::string& flag) {
      return flag.rfind(name, 0) == 0 ? 0 : edit_distance(name, flag);
    };
    std::string nearest = "help";
    for (const CliFlag& flag : declared_) {
      if (distance(flag.name) < distance(nearest)) nearest = flag.name;
    }
    return "unknown flag --" + name + " (did you mean --" + nearest + "?)";
  }
  if (!positional_.empty()) {
    return "unexpected argument '" + positional_.front() +
           "' (every option is a --flag)";
  }
  return "";
}

int Cli::run(const std::string& about, int (*body)(const Cli&)) const {
  const std::size_t slash = program_.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? program_ : program_.substr(slash + 1);
  if (options_.count("help") != 0) {
    std::printf("%s", usage(about).c_str());
    return 0;
  }
  if (const std::string error = undeclared(); !error.empty()) {
    std::fprintf(stderr, "%s: %s\n(--help lists the flags)\n", name.c_str(),
                 error.c_str());
    return 2;
  }
  try {
    return body(*this);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n(--help for usage)\n", name.c_str(),
                 e.what());
    return 1;
  }
}

bool Cli::has(const std::string& name) const {
  if (options_.count(name) == 0) return false;
  // A declared switch reads its value, so `--large-view=false` is off.
  const CliFlag* flag = declared(name);
  return flag == nullptr || !flag->value.empty() || get_bool(name, false);
}

std::optional<std::string> Cli::get(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Cli::value(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  if (it->second.empty()) {
    throw std::invalid_argument("Cli: --" + name + " needs a value");
  }
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  const Range range{0.0};
  const auto n = parse_integer(*v, kMax, range);
  if (!n) throw bad_value(name, *v, range.describe(kMax));
  return *n;
}

double Cli::get_double_in(const std::string& name, double fallback,
                          double min_value, double max_value) const {
  const Range range{min_value, max_value};
  const auto v = value(name);
  const std::optional<double> out =
      v ? parse_number(*v, range)
        : (range.contains(fallback) ? std::optional<double>(fallback)
                                    : std::nullopt);
  if (!out) throw bad_value(name, v.value_or("<default>"), range.describe());
  return *out;
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t max_value) const {
  const auto v = value(name);
  if (!v) return fallback;
  const Range range{1.0, static_cast<double>(max_value)};
  const auto n = parse_integer(*v, max_value, range);
  if (!n) throw bad_value(name, *v, range.describe(max_value));
  return static_cast<std::size_t>(*n);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Cli: bad boolean for --" + name);
}

}  // namespace coopnet::util
