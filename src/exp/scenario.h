// The command-line binding of the SwarmConfig schema (sim/config.h): one
// flag per config field, parsed with the field's type and range, plus the
// scenario presets. coopnet_run and every simulation-backed bench read
// their scenario through exp::Scenario.
#pragma once

#include <string>
#include <vector>

#include "sim/config.h"
#include "util/cli.h"

namespace coopnet::exp {

/// The scenario a binary reads from its command line. Presets apply
/// first, in this order: --scale (small|mid|paper, then the bench defaults
/// seed 7 and max_time 4000), the binary's own `adjust`, --churn
/// (none|moderate|heavy) and --attack (collusion|whitewash|sybil|targeted;
/// targeted picks the attack for --algo). Then every SwarmConfig field
/// flag that is given overrides them. coopnet_run's scenario is mid scale.
struct Scenario {
  std::string default_scale = "mid";
  /// Settings the binary makes on top of the scale; flags override them.
  void (*adjust)(sim::SwarmConfig&) = nullptr;
  /// Sections ("mechanism", "attack", "faults") or flags the binary sets
  /// per cell itself, so it does not declare them.
  std::vector<std::string> omit;

  /// The preset and field flags, for util::Cli::declare.
  std::vector<util::CliFlag> flags() const;
  /// The validated scenario; throws std::invalid_argument.
  sim::SwarmConfig from_cli(const util::Cli& cli) const;
};

/// Sets each field whose flag is on `cli`; throws std::invalid_argument
/// naming the flag and its legal range on a malformed or out-of-range
/// value.
void apply_config_flags(const util::Cli& cli, sim::SwarmConfig& config);

/// `--flag=value` for every field: applying them to any config gives
/// back `config` exactly.
std::vector<std::string> config_to_flags(const sim::SwarmConfig& config);

}  // namespace coopnet::exp
