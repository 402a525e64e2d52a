// Fleet CLI parsing: endpoint validation for --fleet-listen /
// --fleet-connect, in particular that a port token with trailing
// garbage ("8080junk") is rejected instead of silently truncated the
// way bare std::stoi would.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/options.h"
#include "util/cli.h"

namespace coopnet::fleet {
namespace {

FleetControl from_args(std::initializer_list<const char*> extra) {
  std::vector<const char*> argv = {"coopnet_bench"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const util::Cli cli(static_cast<int>(argv.size()), argv.data());
  return fleet_control_from_cli(cli);
}

TEST(FleetOptionsTest, ParsesHostPortAndBarePort) {
  const FleetControl worker = from_args({"--fleet-connect=10.0.0.7:8080"});
  EXPECT_EQ(worker.role, FleetControl::Role::kWorker);
  EXPECT_EQ(worker.host, "10.0.0.7");
  EXPECT_EQ(worker.port, 8080);

  const FleetControl coord = from_args({"--fleet-listen=0"});
  EXPECT_EQ(coord.role, FleetControl::Role::kCoordinator);
  EXPECT_EQ(coord.port, 0) << "port 0 means kernel-chosen ephemeral port";
}

TEST(FleetOptionsTest, RejectsTrailingGarbageAfterPort) {
  EXPECT_THROW(from_args({"--fleet-connect=host:8080junk"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--fleet-listen=8080junk"}),
               std::invalid_argument);
}

TEST(FleetOptionsTest, RejectsNonNumericEmptyAndOutOfRangePorts) {
  EXPECT_THROW(from_args({"--fleet-connect=host:"}), std::invalid_argument);
  EXPECT_THROW(from_args({"--fleet-connect=host:port"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--fleet-connect=host:-1"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--fleet-connect=host:65536"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--fleet-connect=host:99999999999999999999"}),
               std::invalid_argument);
}

TEST(FleetOptionsTest, WorkerRequiresHostAndRolesAreExclusive) {
  EXPECT_THROW(from_args({"--fleet-connect=8080"}), std::invalid_argument)
      << "workers need HOST:PORT, not a bare port";
  EXPECT_THROW(from_args({"--fleet-connect=:8080"}), std::invalid_argument)
      << "empty host";
  EXPECT_THROW(
      from_args({"--fleet-listen=0", "--fleet-connect=localhost:1"}),
      std::invalid_argument);
}

// A count past int's range must be an error naming the legal range, not
// wrap: 4294967297 = 2^32 + 1 would otherwise become 1 attempt.
TEST(FleetOptionsTest, RejectsCountsPastTheirRangeInsteadOfWrapping) {
  const auto message_of = [](std::initializer_list<const char*> args) {
    try {
      from_args(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string wrapped =
      message_of({"--fleet-listen=0", "--max-cell-attempts", "4294967297"});
  EXPECT_NE(wrapped.find("--max-cell-attempts=4294967297"),
            std::string::npos)
      << wrapped;
  EXPECT_NE(wrapped.find("[1, 2147483647]"), std::string::npos) << wrapped;
  EXPECT_EQ(from_args({"--fleet-listen=0", "--max-cell-attempts", "7"})
                .lease.max_attempts,
            7);

  for (const char* bad : {"0", "-1", "2.5", "99999999999999999999"}) {
    EXPECT_THROW(from_args({"--fleet-listen=0", "--lease-cells", bad}),
                 std::invalid_argument)
        << bad;
  }
  for (const char* flag : {"--lease-timeout", "--heartbeat"}) {
    for (const char* bad : {"-1", "nan", "inf", "0x1p4"}) {
      EXPECT_THROW(from_args({"--fleet-listen=0", flag, bad}),
                   std::invalid_argument)
          << flag << " " << bad;
    }
  }
}

}  // namespace
}  // namespace coopnet::fleet
