#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace coopnet::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const auto cli = make({"--n=42", "--name=abc"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
}

TEST(Cli, SpaceSyntax) {
  const auto cli = make({"--n", "42"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
}

TEST(Cli, BareFlag) {
  const auto cli = make({"--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get("verbose").has_value());
}

TEST(Cli, FlagFollowedByFlagDoesNotConsume) {
  const auto cli = make({"--a", "--b=1"});
  EXPECT_TRUE(cli.has("a"));
  EXPECT_FALSE(cli.get("a").has_value());
  EXPECT_EQ(cli.get_int("b", 0), 1);
}

TEST(Cli, Positional) {
  const auto cli = make({"file1", "--x=1", "file2"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("s", "d"), "d");
  EXPECT_FALSE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("b", true));
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(make({"--f=true"}).get_bool("f", false));
  EXPECT_TRUE(make({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(make({"--f=1"}).get_bool("f", false));
  EXPECT_FALSE(make({"--f=false"}).get_bool("f", true));
  EXPECT_FALSE(make({"--f=off"}).get_bool("f", true));
}

TEST(Cli, MalformedValuesThrow) {
  EXPECT_THROW(make({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make({"--x=1.2.3"}).get_double("x", 0), std::invalid_argument);
  EXPECT_THROW(make({"--b=maybe"}).get_bool("b", false),
               std::invalid_argument);
}

TEST(Cli, GetDoubleInRange) {
  const auto cli = make({"--rate=0.25", "--frac=1.5"});
  EXPECT_EQ(cli.get_double_in("rate", 0.0, 0.0, 1.0), 0.25);
  // Boundary values are inside the (closed) range.
  EXPECT_EQ(make({"--p=1"}).get_double_in("p", 0.0, 0.0, 1.0), 1.0);
  EXPECT_THROW(cli.get_double_in("frac", 0.0, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(make({"--p=-0.1"}).get_double_in("p", 0.0, 0.0, 1.0),
               std::invalid_argument);
  // The fallback is not exempt from validation: a caller wiring an
  // out-of-range default is a bug, not a user error.
  EXPECT_THROW(cli.get_double_in("absent", 7.0, 0.0, 1.0),
               std::invalid_argument);
  // The strict finite grammar of get_double still applies underneath.
  EXPECT_THROW(make({"--p=inf"}).get_double_in("p", 0.0, 0.0, 1e9),
               std::invalid_argument);
  EXPECT_THROW(make({"--p=0.5x"}).get_double_in("p", 0.0, 0.0, 1.0),
               std::invalid_argument);
}

TEST(Cli, GetDouble) {
  const auto cli = make({"--x=2.5"});
  EXPECT_EQ(cli.get_double("x", 0.0), 2.5);
}

Cli declared(std::initializer_list<const char*> args) {
  Cli cli = make(args);
  cli.declare({{"scenario", "max-incoming", "N", "downloads per leecher"},
               {"scenario", "seed", "S", "random seed"},
               {"output", "json", "", "print JSON"}});
  return cli;
}

int ok_body(const Cli&) { return 0; }
int throwing_body(const Cli&) { throw std::invalid_argument("bad value"); }

TEST(Cli, RunRejectsAnUndeclaredFlagNamingTheNearest) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(declared({"--max-incomming", "2"}).run("about", ok_body), 2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--max-incomming"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean --max-incoming?"), std::string::npos)
      << err;

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(declared({"stray"}).run("about", ok_body), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("'stray'"),
            std::string::npos);
  EXPECT_EQ(declared({"--seed", "3", "--json"}).run("about", ok_body), 0);
}

TEST(Cli, RunPrintsUsageForHelpWithoutRunningTheBody) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(declared({"--help", "--bogus"}).run("about text", throwing_body),
            0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("about text\n", 0), 0u) << out;
  EXPECT_NE(out.find("scenario:\n  --max-incoming N     downloads per leecher"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("output:\n  --json               print JSON"),
            std::string::npos)
      << out;
}

TEST(Cli, RunTurnsAThrownValueErrorIntoExitOne) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(declared({}).run("about", throwing_body), 1);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("bad value"),
            std::string::npos);
}

TEST(Cli, DeclaredSwitchReadsItsValue) {
  EXPECT_TRUE(declared({"--json"}).has("json"));
  EXPECT_TRUE(declared({"--json=on"}).has("json"));
  EXPECT_FALSE(declared({"--json=false"}).has("json"));
  EXPECT_THROW(declared({"--json=maybe"}).has("json"), std::invalid_argument);
}

TEST(Cli, DeclaringAFlagTwiceIsAProgrammingError) {
  Cli cli = declared({});
  EXPECT_THROW(cli.declare({{"x", "seed", "S", "again"}}), std::logic_error);
}

TEST(Cli, EmptyValuesAreErrorsNotDefaults) {
  EXPECT_THROW(make({"--n="}).get_int("n", 7), std::invalid_argument);
  EXPECT_THROW(make({"--n"}).get_count("n", 7, 100), std::invalid_argument);
  EXPECT_THROW(make({"--x="}).get_double("x", 1.0), std::invalid_argument);
}

TEST(Cli, GetU64TakesTheWholeRangeAndNoSign) {
  EXPECT_EQ(make({"--seed=18446744073709551615"}).get_u64("seed", 0),
            18446744073709551615ULL);
  EXPECT_EQ(make({}).get_u64("seed", 7), 7u);
  EXPECT_THROW(make({"--seed=-1"}).get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW(make({"--seed=18446744073709551616"}).get_u64("seed", 0),
               std::invalid_argument);
}

TEST(Cli, ProgramName) {
  const auto cli = make({});
  EXPECT_EQ(cli.program(), "prog");
}

}  // namespace
}  // namespace coopnet::util
