// Sweep command lines, driven through the real binaries: coopnet_run's
// --reps parsing and the figure benches' output flags under a journal.
//
// The binary paths come from CMake as COOPNET_RUN_BIN and FIG4_BIN.
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
