// Command lines driven through the real binaries: coopnet_run's --reps
// parsing and typed flag values, the figure benches' output flags under a
// journal, and the strict CLI of every util::Cli binary.
//
// The binary paths come from CMake: COOPNET_RUN_BIN, FIG4_BIN, TABLE1_BIN,
// TABLE3_BIN, QUICKSTART_BIN, and CLI_BINARIES (every util::Cli binary,
// ':'-separated).
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Outcome {
  int exit_code = -1;
  std::string out;  // stdout
  std::string err;  // stderr
};

// fork/exec `args` with stdout and stderr captured into files under `dir`.
Outcome run_binary(const std::vector<std::string>& args,
                   const std::string& dir) {
  const std::string out_path = dir + "/stdout.txt";
  const std::string err_path = dir + "/stderr.txt";
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  Outcome run;
  const pid_t pid = fork();
  if (pid == 0) {
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out < 0 || err < 0) _exit(126);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed
  }
  if (pid < 0) return run;
  int status = 0;
  ::waitpid(pid, &status, 0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  run.out = read_file(out_path);
  run.err = read_file(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

std::string make_temp_dir(const char* stem) {
  std::string tmpl = ::testing::TempDir() + stem + "_XXXXXX";
  return ::mkdtemp(tmpl.data()) != nullptr ? tmpl : std::string();
}

TEST(CoopnetRunCli, RejectsNonPositiveRepsWithTheLegalRange) {
  const std::string dir = make_temp_dir("coopnet_reps");
  ASSERT_FALSE(dir.empty());
  for (const char* reps : {"-1", "0", "100001"}) {
    const Outcome run =
        run_binary({COOPNET_RUN_BIN, "--algo", "Altruism", "--n", "20",
                    "--file-mb", "1", "--reps", reps},
                   dir);
    EXPECT_EQ(run.exit_code, 1) << "--reps " << reps;
    EXPECT_NE(run.err.find("--reps=" + std::string(reps)), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("[1, 100000]"), std::string::npos) << run.err;
  }
  const Outcome help = run_binary({COOPNET_RUN_BIN, "--help"}, dir);
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("--reps R             replications, 1..100000"),
            std::string::npos);
  ::rmdir(dir.c_str());
}

// Each flag value is parsed with its field's type and range: a value
// that used to wrap, truncate or fall back to the default exits 1 with
// the legal range on stderr.
TEST(CoopnetRunCli, RejectsValuesOutsideTheFieldsRange) {
  const std::string dir = make_temp_dir("coopnet_ranges");
  ASSERT_FALSE(dir.empty());
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--seed", "-1"}, "[0, 18446744073709551615]"},
       {{"--tchain-backlog", "4294967297"}, "[0, 2147483647]"},
       {{"--audit-every", "-1"}, "[0, 18446744073709551615]"},
       {{"--n="}, "[2, 100000000]"},
       {{"--large-view=maybe"}, "boolean"}};
  for (const auto& [flags, range] : cases) {
    std::vector<std::string> args = {COOPNET_RUN_BIN, "--algo", "T-Chain",
                                     "--n", "30", "--file-mb", "2"};
    args.insert(args.end(), flags.begin(), flags.end());
    const Outcome run = run_binary(args, dir);
    EXPECT_EQ(run.exit_code, 1) << flags[0];
    EXPECT_NE(run.err.find(range), std::string::npos) << run.err;
  }
  const Outcome max_seed =
      run_binary({COOPNET_RUN_BIN, "--algo", "Altruism", "--n", "20",
                  "--file-mb", "1", "--seed", "18446744073709551615"},
                 dir);
  EXPECT_EQ(max_seed.exit_code, 0) << max_seed.err;
  ::rmdir(dir.c_str());
}

// The in-memory CSV trace is gone; the old switch is an undeclared flag
// whose diagnostic names the streamed trace that replaces it.
TEST(CoopnetRunCli, OldTraceSwitchNamesTraceOut) {
  const std::string dir = make_temp_dir("coopnet_trace");
  ASSERT_FALSE(dir.empty());
  const Outcome run = run_binary(
      {COOPNET_RUN_BIN, "--algo", "Altruism", "--n", "20", "--trace"}, dir);
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown flag --trace (did you mean --trace-out?)"),
            std::string::npos)
      << run.err;
  ::rmdir(dir.c_str());
}

TEST(CoopnetRunCli, SwitchesAndNewFlagsChangeTheRun) {
  const std::string dir = make_temp_dir("coopnet_switches");
  ASSERT_FALSE(dir.empty());
  const auto report = [&dir](std::vector<std::string> extra) {
    std::vector<std::string> args = {COOPNET_RUN_BIN, "--n",  "200",
                                     "--file-mb",     "1",    "--free-riders",
                                     "0.2",           "--json"};
    args.insert(args.end(), extra.begin(), extra.end());
    const Outcome run = run_binary(args, dir);
    EXPECT_EQ(run.exit_code, 0) << run.err;
    return run.out;
  };
  const std::string plain = report({});
  EXPECT_EQ(report({"--large-view=false"}), plain);
  EXPECT_NE(report({"--large-view"}), plain);
  EXPECT_NE(report({"--algo", "T-Chain", "--max-incoming", "1"}),
            report({"--algo", "T-Chain"}));

  const Outcome typo =
      run_binary({COOPNET_RUN_BIN, "--max-incomming", "2"}, dir);
  EXPECT_EQ(typo.exit_code, 2);
  EXPECT_NE(typo.err.find("did you mean --max-incoming?"), std::string::npos)
      << typo.err;
  ::rmdir(dir.c_str());
}

// --backend fluid reads only some config fields: a flag for any other
// field exits 1 naming the event backend instead of being ignored. The
// fields it models, and the seed and piece size, still run.
TEST(CoopnetRunCli, FluidBackendRejectsFieldsItDoesNotModel) {
  const std::string dir = make_temp_dir("coopnet_fluid");
  ASSERT_FALSE(dir.empty());
  const std::vector<std::string> fluid = {COOPNET_RUN_BIN, "--backend",
                                          "fluid",         "--algo",
                                          "BitTorrent",    "--n",
                                          "1000",          "--file-mb",
                                          "8"};
  for (const std::vector<std::string>& flag :
       {std::vector<std::string>{"--max-incoming", "1"},
        {"--tchain-backlog", "3"},
        {"--stall", "0.1"},
        {"--retry-interval", "2"},
        {"--attack", "targeted"}}) {
    std::vector<std::string> args = fluid;
    args.insert(args.end(), flag.begin(), flag.end());
    const Outcome run = run_binary(args, dir);
    EXPECT_EQ(run.exit_code, 1) << flag[0];
    EXPECT_NE(run.err.find(flag[0] + " needs the event backend"),
              std::string::npos)
        << run.err;
  }
  std::vector<std::string> modelled = fluid;
  modelled.insert(modelled.end(),
                  {"--piece-kb", "128", "--seed", "415", "--max-time", "4000",
                   "--churn-rate", "0.001", "--loss", "0.05", "--linger",
                   "10", "--n-bt", "3"});
  const Outcome ok = run_binary(modelled, dir);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  ::rmdir(dir.c_str());
}

// Counts go through Cli::get_count before any work starts: a zero or
// negative --n used to abort on an uncaught exception or run forever.
TEST(BenchCli, BadCountsExitOneBeforeAnyWork) {
  const std::string dir = make_temp_dir("coopnet_counts");
  ASSERT_FALSE(dir.empty());
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{TABLE1_BIN, "--n", "0", "--no-sim"},
        std::vector<std::string>{TABLE3_BIN, "--n", "-1", "--no-sim"},
        std::vector<std::string>{QUICKSTART_BIN, "--n", "-3"}}) {
    const Outcome run = run_binary(args, dir);
    EXPECT_EQ(run.exit_code, 1) << args[0];
    EXPECT_NE(run.err.find("[1, 100000000]"), std::string::npos) << run.err;
    EXPECT_TRUE(run.out.empty()) << args[0] << " started working:\n"
                                 << run.out;
  }
  ::rmdir(dir.c_str());
}

TEST(StrictCli, EveryBinaryPrintsHelpAndRejectsAnUndeclaredFlag) {
  const std::string dir = make_temp_dir("coopnet_strict");
  ASSERT_FALSE(dir.empty());
  std::vector<std::string> binaries;
  std::istringstream list(CLI_BINARIES);
  for (std::string path; std::getline(list, path, ':');) {
    binaries.push_back(path);
  }
  EXPECT_EQ(binaries.size(), 23u);
  for (const std::string& binary : binaries) {
    const Outcome help = run_binary({binary, "--help"}, dir);
    EXPECT_EQ(help.exit_code, 0) << binary;
    EXPECT_FALSE(help.out.empty()) << binary;
    const Outcome bad = run_binary({binary, "--no-such-flag"}, dir);
    EXPECT_EQ(bad.exit_code, 2) << binary;
    EXPECT_NE(bad.err.find("unknown flag --no-such-flag"), std::string::npos)
        << binary << ": " << bad.err;
  }
  ::rmdir(dir.c_str());
}

TEST(FigureBenchCli, CsvAndExpectedShapeSurviveAJournal) {
  const std::string dir = make_temp_dir("coopnet_fig4_csv");
  ASSERT_FALSE(dir.empty());
  const std::string journal = dir + "/fig4.jsonl";
  const Outcome run = run_binary(
      {FIG4_BIN, "--scale", "small", "--n", "20", "--file-mb", "1",
       "--max-time", "300", "--jobs", "2", "--csv", "--journal", journal},
      dir);
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("--- CSV: fairness series ---"), std::string::npos);
  EXPECT_NE(run.out.find("--- CSV: completion times ---"), std::string::npos);
  EXPECT_NE(run.out.find("Expected shape (Fig. 4)"), std::string::npos);
  EXPECT_NE(run.out.find("status"), std::string::npos);
  std::remove(journal.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
