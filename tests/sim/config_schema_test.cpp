// The SwarmConfig schema: every field is reachable from the command line
// (config -> flags -> config gives back the same fingerprint for every
// pinned configuration and for one where every field is off its default),
// flag values are parsed with their field's type and range, and presets
// apply before the per-field flags.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "sim/config.h"
#include "util/cli.h"

#include "pinned_configs.h"

namespace coopnet::sim {
namespace {

/// The scenario coopnet_run would parse from `args`, through the strict
/// Cli protocol; `exit_code` is what Cli::run returned.
SwarmConfig g_parsed;

SwarmConfig parse(const std::vector<std::string>& args, int* exit_code) {
  std::vector<const char*> argv = {"coopnet_run"};
  for (const auto& a : args) argv.push_back(a.c_str());
  util::Cli cli(static_cast<int>(argv.size()), argv.data());
  cli.declare(exp::Scenario{}.flags());
  g_parsed = SwarmConfig{};
  *exit_code = cli.run("test", +[](const util::Cli& c) {
    g_parsed = exp::Scenario{}.from_cli(c);
    return 0;
  });
  return g_parsed;
}

SwarmConfig parse_ok(const std::vector<std::string>& args) {
  int exit_code = -1;
  const SwarmConfig config = parse(args, &exit_code);
  EXPECT_EQ(exit_code, 0);
  return config;
}

/// exp::apply_config_flags alone, on a default SwarmConfig.
SwarmConfig apply(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  const util::Cli cli(static_cast<int>(argv.size()), argv.data());
  SwarmConfig config;
  exp::apply_config_flags(cli, config);
  return config;
}

std::string apply_error(std::initializer_list<const char*> args) {
  try {
    apply(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigSchema, FlagsRoundTripEveryPinnedConfig) {
  for (const auto& [name, config] : pinned_configs()) {
    const std::vector<std::string> flags = exp::config_to_flags(config);
    EXPECT_EQ(canonical_config_string(parse_ok(flags)),
              canonical_config_string(config))
        << name;
  }
}

TEST(ConfigSchema, EveryFieldIsReachableFromTheCommandLine) {
  // Every field off its default (and off the mid-scale preset).
  SwarmConfig c;
  c.algorithm = core::Algorithm::kPropShare;
  c.n_peers = 77;
  c.free_rider_fraction = 0.125;
  c.strategic_fraction = 0.25;
  c.capacities = core::CapacityDistribution({{1000.5, 0.75}, {3e6, 0.25}});
  c.seeder_capacity = 123456.75;
  c.seeder_count = 3;
  c.file_bytes = 3 * 1024 * 1024 + 512;
  c.piece_bytes = 64 * 1024 + 8;
  c.arrivals = ArrivalProcess::kStaggered;
  c.flash_crowd_window = 2.5;
  c.arrival_rate = 0.3;
  c.graph.degree = 11;
  c.graph.large_view_multiplier = 2.75;
  c.max_incoming = 2;
  c.upload_slots = 7;
  c.seeder_slots = 9;
  c.rechoke_interval = 12.5;
  c.optimistic_rounds = 4;
  c.n_bt = 6;
  c.alpha_r = 0.3;
  c.reputation_mode = ReputationMode::kEigenTrust;
  c.piece_selection = PieceSelection::kSequential;
  c.tchain_grace = 7.25;
  c.tchain_backlog = 0;
  c.attack.collusion = true;
  c.attack.whitewashing = true;
  c.attack.whitewash_interval = 3.5;
  c.attack.sybil_praise = true;
  c.attack.sybil_interval = 4.5;
  c.attack.sybil_rate = 1e5;
  c.attack.large_view = true;
  c.faults.transfer_loss_rate = 0.1;
  c.faults.transfer_stall_rate = 0.2;
  c.faults.stall_timeout = 45.0;
  c.faults.max_retries = 5;
  c.faults.retry_backoff = 0.25;
  c.faults.retry_backoff_factor = 1.5;
  c.faults.retry_backoff_cap = 4.0;
  c.faults.churn_rate = 0.01;
  c.faults.rejoin_probability = 0.6;
  c.faults.mean_downtime = 20.0;
  c.faults.seeder_uptime = 100.0;
  c.faults.seeder_downtime = 10.0;
  c.linger_time = 5.0;
  c.max_time = 1234.5;
  c.retry_interval = 0.75;
  c.seed = 18446744073709551615ULL;
  c.audit_every = 17;
  ASSERT_NO_THROW(c.validate());
  const std::string expected = canonical_config_string(c);
  ASSERT_NE(expected, canonical_config_string(exp::Scenario{}.from_cli(
                          util::Cli(0, nullptr))));
  EXPECT_EQ(canonical_config_string(parse_ok(exp::config_to_flags(c))), expected);

  // Each flag alone moves exactly its own field off the default.
  const std::string defaults = canonical_config_string(SwarmConfig{});
  for (const std::string& flag : exp::config_to_flags(c)) {
    const char* argv[] = {"prog", flag.c_str()};
    const util::Cli cli(2, argv);
    SwarmConfig one;
    exp::apply_config_flags(cli, one);
    EXPECT_NE(canonical_config_string(one), defaults) << flag;
  }
}

TEST(ConfigSchema, NoFlagScenarioIsCoopnetRunsDefault) {
  EXPECT_EQ(canonical_config_string(parse_ok({})),
            canonical_config_string(coopnet_run_default()));
}

TEST(ConfigSchema, PresetsApplyBeforeFieldFlags) {
  SwarmConfig churn = parse_ok({"--churn", "moderate", "--rejoin", "0.5"});
  SwarmConfig expected = coopnet_run_default();
  expected.faults = moderate_churn();
  expected.faults.rejoin_probability = 0.5;
  EXPECT_EQ(canonical_config_string(churn), canonical_config_string(expected));

  // --attack targeted follows --algo wherever it appears on the line.
  const SwarmConfig targeted =
      parse_ok({"--attack", "targeted", "--free-riders", "0.2", "--algo",
                "FairTorrent", "--whitewash-interval", "5"});
  EXPECT_TRUE(targeted.attack.whitewashing);
  EXPECT_FALSE(targeted.attack.collusion);
  EXPECT_EQ(targeted.attack.whitewash_interval, 5.0);

  const SwarmConfig small = parse_ok({"--scale", "small", "--n", "30"});
  SwarmConfig small_expected = SwarmConfig::small(core::Algorithm::kBitTorrent);
  small_expected.n_peers = 30;
  small_expected.seed = 7;
  small_expected.max_time = 4000.0;
  EXPECT_EQ(canonical_config_string(small),
            canonical_config_string(small_expected));
}

TEST(ConfigSchema, FlagValuesKeepTheirTypeAndRange) {
  EXPECT_EQ(apply({"--seed", "18446744073709551615"}).seed,
            18446744073709551615ULL);
  EXPECT_NE(apply_error({"--seed", "-1"}).find(
                "[0, 18446744073709551615]"),
            std::string::npos);
  EXPECT_NE(apply_error({"--tchain-backlog", "4294967297"})
                .find("[0, 2147483647]"),
            std::string::npos);
  EXPECT_NE(apply_error({"--audit-every", "-1"}).find(
                "[0, 18446744073709551615]"),
            std::string::npos);
  EXPECT_NE(apply_error({"--n="}).find("--n= is invalid"), std::string::npos);
  EXPECT_NE(apply_error({"--n", "1"}).find("[2, 100000000]"),
            std::string::npos);
  EXPECT_NE(apply_error({"--free-riders", "1"}).find("[0, 1)"),
            std::string::npos);
  EXPECT_NE(apply_error({"--loss", "nan"}).find("[0, 1)"),
            std::string::npos);
  EXPECT_NE(apply_error({"--arrivals", "burst"}).find("flash|poisson"),
            std::string::npos);
  EXPECT_NE(apply_error({"--algo", "Bittorent"}).find("T-Chain"),
            std::string::npos);
  EXPECT_FALSE(apply({"--large-view=false"}).attack.large_view);
  EXPECT_TRUE(apply({"--large-view"}).attack.large_view);
  EXPECT_EQ(apply({"--file-mb", "0.5"}).file_bytes, 512 * 1024);
  EXPECT_NE(apply_error({"--piece-kb", "0.0001"}).find("is invalid"),
            std::string::npos);
}

TEST(ConfigSchema, ValidateNamesTheFieldAndItsRange) {
  SwarmConfig c;
  c.n_peers = 1;
  try {
    c.validate();
    FAIL() << "n_peers = 1 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n_peers = 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[2, 100000000]"), std::string::npos)
        << e.what();
  }
  // BitTorrent may reserve more reciprocation slots than it has upload
  // slots (bittorrent_test runs upload_slots = 2 with n_bt = 4).
  SwarmConfig wide;
  wide.upload_slots = 2;
  wide.n_bt = 4;
  EXPECT_NO_THROW(wide.validate());
}

TEST(ConfigSchema, UndeclaredAndOmittedFlagsExitTwo) {
  int exit_code = -1;
  parse({"--max-incomming", "2"}, &exit_code);
  EXPECT_EQ(exit_code, 2);
  parse({"--n", "0"}, &exit_code);
  EXPECT_EQ(exit_code, 1);

  // A binary that sets the mechanism per cell does not declare --algo.
  const std::vector<util::CliFlag> suite =
      exp::Scenario{"paper", nullptr, {"mechanism", "attack"}}.flags();
  for (const util::CliFlag& flag : suite) {
    EXPECT_NE(flag.name, "algo");
    EXPECT_NE(flag.name, "attack");
    EXPECT_NE(flag.name, "collusion");
  }
  EXPECT_THROW(exp::Scenario({"mid", nullptr, {"no-such-section"}}).flags(),
               std::logic_error);
}

}  // namespace
}  // namespace coopnet::sim
