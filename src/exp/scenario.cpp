#include "exp/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "exp/runner.h"
#include "sim/faults.h"
#include "util/parse.h"

namespace coopnet::exp {

namespace {

using sim::schema::Field;
using sim::schema::kIsInteger;
using sim::schema::kIsNumber;

/// The help section of a field, which is also the name a binary omits
/// it by: "mechanism", "attack", "faults" or "scenario".
std::string section(const Field& f) {
  const std::string key = f.key;
  if (key == "algorithm") return "mechanism";
  if (key.rfind("attack_", 0) == 0) return "attack";
  if (key.rfind("fault_", 0) == 0) return "faults";
  return "scenario";
}

// Each enum field's spellings, in enumerator order.
std::string choices(core::Algorithm) {
  std::string out;
  for (core::Algorithm a : core::kAllAlgorithmsExtended) {
    if (!out.empty()) out += '|';
    out += core::to_string(a);
  }
  return out;
}
std::string choices(sim::ArrivalProcess) { return "flash|poisson|staggered"; }
std::string choices(sim::ReputationMode) { return "ledger|eigentrust"; }
std::string choices(sim::PieceSelection) { return "rarest|random|sequential"; }

std::vector<std::string> split(const std::string& text, char at) {
  std::vector<std::string> out(1);
  for (char ch : text) {
    if (ch == at) {
      out.emplace_back();
    } else {
      out.back() += ch;
    }
  }
  return out;
}

bool contains(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

/// What the flag of `f` accepts, for help lines and error messages. The
/// ranges of the KiB/MiB sizes read the same in either unit.
template <class T>
std::string expected(const Field& f) {
  if constexpr (std::is_enum_v<T>) {
    return "one of " + choices(T{});
  } else if constexpr (std::is_same_v<T, core::CapacityDistribution>) {
    return "RATE:SHARE,... with rates > 0 and shares summing to 1";
  } else if constexpr (kIsInteger<T>) {
    return f.range.describe(f.unit == 1.0 ? std::numeric_limits<T>::max()
                                          : 0);
  } else {
    return f.range.describe();
  }
}

/// `v` as its flag spells it.
template <class T>
std::string text_of(const Field& f, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return split(choices(v), '|').at(static_cast<std::size_t>(v));
  } else if constexpr (std::is_same_v<T, core::CapacityDistribution>) {
    std::string out;
    for (const core::CapacityClass& c : v.classes()) {
      if (!out.empty()) out += ',';
      out += util::shortest(c.rate) + ":" + util::shortest(c.fraction);
    }
    return out;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (kIsInteger<T>) {
    return f.unit == 1.0 ? std::to_string(v)
                         : util::shortest(static_cast<double>(v) / f.unit);
  } else {
    return util::shortest(v);
  }
}

/// Parses flag text into `v`; false when it is malformed or outside the
/// field's range. A value outside the field's type is never truncated.
template <class T>
bool parse_text(const Field& f, const std::string& text, T& v) {
  if constexpr (std::is_enum_v<T>) {
    const std::vector<std::string> names = split(choices(v), '|');
    const auto it = std::find(names.begin(), names.end(), text);
    if (it != names.end()) v = static_cast<T>(it - names.begin());
    return it != names.end();
  } else if constexpr (std::is_same_v<T, core::CapacityDistribution>) {
    std::vector<core::CapacityClass> classes;
    for (const std::string& item : split(text, ',')) {
      const std::vector<std::string> pair = split(item, ':');
      core::CapacityClass c;
      if (pair.size() != 2 || !util::parse_double(pair[0], &c.rate) ||
          !util::parse_double(pair[1], &c.fraction)) {
        return false;
      }
      classes.push_back(c);
    }
    try {
      v = core::CapacityDistribution(std::move(classes));
    } catch (const std::invalid_argument&) {
      return false;
    }
    return true;
  } else if constexpr (kIsInteger<T>) {
    if (f.unit == 1.0) {
      const auto n =
          util::parse_integer(text, std::numeric_limits<T>::max(), f.range);
      if (n) v = static_cast<T>(*n);
      return n.has_value();
    }
    // A size in KiB/MiB must come to a whole number of bytes.
    const auto x = util::parse_number(text, f.range);
    if (!x || *x * f.unit != std::floor(*x * f.unit) ||
        *x * f.unit >= static_cast<double>(std::numeric_limits<T>::max())) {
      return false;
    }
    v = static_cast<T>(*x * f.unit);
    return true;
  } else {
    const auto x = util::parse_number(text, f.range);
    if (x) v = *x;
    return x.has_value();
  }
}

sim::SwarmConfig scale_preset(const std::string& scale) {
  sim::SwarmConfig config;
  if (scale == "small") {
    config = sim::SwarmConfig::small(core::Algorithm::kBitTorrent);
  } else if (scale == "mid") {
    config = sim::SwarmConfig::paper_scale(core::Algorithm::kBitTorrent);
    config.n_peers = 300;
    config.file_bytes = 32LL * 1024 * 1024;
    config.graph.degree = 30;
  } else if (scale == "paper") {
    config = sim::SwarmConfig::paper_scale(core::Algorithm::kBitTorrent);
  } else {
    throw std::invalid_argument("--scale=" + scale +
                                " is not one of small|mid|paper");
  }
  config.seed = 7;
  // Caps the run so pure reciprocity (which never completes) terminates.
  config.max_time = 4000.0;
  return config;
}

std::vector<util::CliFlag> config_flags(const sim::SwarmConfig& defaults,
                                        const std::vector<std::string>& omit) {
  std::vector<util::CliFlag> out;
  std::vector<std::string> names;  // every section and flag, for `omit`
  sim::schema::for_each_field(defaults, [&](const Field& f, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    const std::string sec = section(f);
    names.insert(names.end(), {sec, f.flag});
    if (contains(omit, sec) || contains(omit, f.flag)) return;
    std::string value = "X";
    std::string help = f.help;
    if constexpr (std::is_same_v<T, bool>) {
      value = "";
      if (v) help += " (default on)";
    } else {
      if constexpr (std::is_enum_v<T>) value = choices(v);
      if constexpr (std::is_same_v<T, core::CapacityDistribution>) {
        value = "RATE:SHARE,...";
      }
      if constexpr (kIsNumber<T>) {
        if (kIsInteger<T> && f.unit == 1.0) value = "N";
        help += ", " + expected<T>(f);
      }
      help += " (default " + text_of(f, v) + ")";
    }
    out.push_back({sec, f.flag, value, help});
  });
  for (const std::string& name : omit) {
    if (!contains(names, name)) {
      throw std::logic_error("config_flags: nothing named '" + name + "'");
    }
  }
  return out;
}

}  // namespace

void apply_config_flags(const util::Cli& cli, sim::SwarmConfig& config) {
  sim::schema::for_each_field(config, [&cli](const Field& f, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = cli.get_bool(f.flag, v);
    } else if (cli.has(f.flag)) {
      const std::string text = cli.get_string(f.flag, "");
      if (!parse_text(f, text, v)) {
        throw std::invalid_argument("--" + std::string(f.flag) + "=" + text +
                                    " is invalid (expected " +
                                    expected<T>(f) + ")");
      }
    }
  });
}

std::vector<std::string> config_to_flags(const sim::SwarmConfig& config) {
  std::vector<std::string> out;
  sim::schema::for_each_field(config, [&out](const Field& f, const auto& v) {
    out.push_back("--" + std::string(f.flag) + "=" + text_of(f, v));
  });
  return out;
}

std::vector<util::CliFlag> Scenario::flags() const {
  sim::SwarmConfig defaults = scale_preset(default_scale);
  if (adjust != nullptr) adjust(defaults);
  std::vector<util::CliFlag> out = config_flags(defaults, omit);
  out.push_back({"scenario", "scale", "small|mid|paper",
                 "preset base scenario (default " + default_scale + ")"});
  if (!contains(omit, "faults")) {
    out.push_back({"faults", "churn", "none|moderate|heavy",
                   "preset leecher churn level (default none)"});
  }
  if (!contains(omit, "attack")) {
    out.push_back({"attack", "attack", "NAME",
                   "preset collusion|whitewash|sybil|targeted; targeted "
                   "mounts the most effective attack on --algo"});
  }
  return out;
}

sim::SwarmConfig Scenario::from_cli(const util::Cli& cli) const {
  sim::SwarmConfig config =
      scale_preset(cli.get_string("scale", default_scale));
  if (adjust != nullptr) adjust(config);

  const std::string churn = cli.get_string("churn", "none");
  if (churn == "moderate") {
    config.faults = sim::moderate_churn();
  } else if (churn == "heavy") {
    config.faults = sim::heavy_churn();
  } else if (churn != "none") {
    throw std::invalid_argument("--churn=" + churn +
                                " is not one of none|moderate|heavy");
  }

  const std::string attack = cli.get_string("attack", "");
  if (attack == "collusion") {
    config.attack.collusion = true;
  } else if (attack == "whitewash") {
    config.attack.whitewashing = true;
  } else if (attack == "sybil") {
    config.attack.sybil_praise = true;
  } else if (attack == "targeted") {
    sim::SwarmConfig flagged = config;
    apply_config_flags(cli, flagged);
    config.attack = targeted_attack(flagged.algorithm);
  } else if (!attack.empty()) {
    throw std::invalid_argument(
        "--attack=" + attack +
        " is not one of collusion|whitewash|sybil|targeted");
  }

  apply_config_flags(cli, config);
  config.validate();
  return config;
}

}  // namespace coopnet::exp
