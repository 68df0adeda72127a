// Usage errors of the command-line binaries. Each malformed command line in the table
// must exit 2 before any simulation starts, print nothing on stdout, and name the
// offending flag on the first line of stderr. tests/CMakeLists.txt passes in the
// binaries' paths.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Outcome {
  int exit_status = -1;  // -1 when the binary did not exit normally
  std::string out;
  std::string err;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Runs `binary` with `args`, capturing stdout and stderr in files. A CPU-time limit
// turns a command line that starts a simulation by mistake into a failure, not a hang.
Outcome RunCommand(const std::string& binary, const std::vector<std::string>& args) {
  const std::string prefix = testing::TempDir() + "cli_error_test." + std::to_string(getpid());
  const std::string out_path = prefix + ".out";
  const std::string err_path = prefix + ".err";
  const pid_t pid = fork();
  if (pid == 0) {
    const rlimit cpu_seconds = {30, 30};
    setrlimit(RLIMIT_CPU, &cpu_seconds);
    dup2(open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644), STDOUT_FILENO);
    dup2(open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644), STDERR_FILENO);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str())};
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  Outcome outcome;
  outcome.exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  outcome.out = Slurp(out_path);
  outcome.err = Slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return outcome;
}

struct Case {
  const char* binary;
  std::vector<std::string> args;
  const char* named;  // must appear on stderr's first line
};

TEST(CliErrorTest, MalformedCommandLinesExitTwoNamingTheFlag) {
  // A malformed value is paired with a mode that reads the flag; on its own the
  // missing mode would be the first error.
  const std::vector<Case> cases = {
      {CLOF_BENCH, {"--thread=8"}, "--thread"},
      {CLOF_BENCH, {"--sweep", "--threads=4x"}, "--threads"},
      {CLOF_BENCH, {"--sweep", "--threads=4,,8"}, "--threads"},
      {CLOF_BENCH, {"--sweep", "--jobs=abc"}, "--jobs"},
      {CLOF_BENCH, {"--list=abc"}, "--list"},
      {CLOF_BENCH, {"--list", "--machine=amr"}, "--machine"},
      {CLOF_BENCH, {"--sweep", "--profile=kyot"}, "--profile"},
      {CLOF_BENCH, {"--sweep", "--robustness=0"}, "--robustness"},
      {CLOF_BENCH, {"--sweep", "--robustness=2x"}, "--robustness"},
      {CLOF_BENCH, {"--sweep", "--latency=0"}, "--latency"},
      {CLOF_BENCH, {"--sweep", "--deadline=-5"}, "--deadline"},
      {CLOF_BENCH, {"--sweep", "--service"}, "--service"},
      {CLOF_BENCH, {"--lock=tkt-tkt", "--adaptive"}, "--lock"},
      {CLOF_BENCH, {"--service", "--profile=kyoto"}, "--profile"},
      {CLOF_BENCH, {"--deadline=100", "--discover"}, "--deadline"},
      {CLOF_BENCH, {"--torture"}, "--torture"},
      {CLOF_BENCH, {}, "--lock"},  // no mode: the error lists the mode flags
      {CLOF_TORTURE, {"--lock=hmcs"}, "--lock"},
      {CLOF_TORTURE, {"--machine=x68"}, "--machine"},
      {FIG9_SWEEP, {"--quik"}, "--quik"},
  };
  for (const Case& c : cases) {
    std::string command = c.binary;
    for (const std::string& arg : c.args) {
      command += " " + arg;
    }
    SCOPED_TRACE(command);
    const Outcome outcome = RunCommand(c.binary, c.args);
    EXPECT_EQ(outcome.exit_status, 2);
    EXPECT_EQ(outcome.out, "");
    const std::string first_line = outcome.err.substr(0, outcome.err.find('\n'));
    EXPECT_NE(first_line.find(c.named), std::string::npos) << outcome.err;
  }
}

}  // namespace
