// SPDX-License-Identifier: MIT
//
// scenario_runner as a process: a run killed with SIGKILL mid-campaign
// resumes from its journal to sinks byte-identical to an uninterrupted
// serial run; a run that cannot write its journal (file-size limit, the
// shape of a full disk) exits 1 naming the journal instead of finishing
// on truncated output; a --progress value the [telemetry] progress key
// would reject exits 1 before any job runs. The binary's path comes from
// CMake (COBRA_SCENARIO_RUNNER). Children are started with posix_spawn,
// never fork: under ThreadSanitizer a forked child of a threaded parent
// dies as soon as it starts threads of its own.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"

extern char** environ;

namespace {

const std::string kRunner = COBRA_SCENARIO_RUNNER;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void remove_outputs(const std::string& stem) {
  for (const char* ext : {".journal", ".journal.tmp", ".jsonl", ".csv",
                          ".log"}) {
    std::remove((stem + ext).c_str());
  }
}

/// Starts `args` (args[0] looked up on PATH) with stdout and stderr sent
/// to `log`; returns the child's pid, or -1 if it could not be started.
/// With `spawn_error` the caller gets posix_spawnp's error code and
/// decides; without it a failure fails the test.
pid_t spawn(const std::vector<std::string>& args, const std::string& log,
            int* spawn_error = nullptr) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawn_error != nullptr) {
    *spawn_error = rc;
  } else {
    EXPECT_EQ(rc, 0) << "cannot spawn " << args[0];
  }
  return rc == 0 ? pid : -1;
}

int wait_for(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

/// Runs `args` to completion; true if it exited 0.
bool run_ok(const std::vector<std::string>& args, const std::string& log) {
  const pid_t pid = spawn(args, log);
  if (pid < 0) return false;
  const int status = wait_for(pid);
  const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  EXPECT_TRUE(ok) << read_file(log);
  return ok;
}

/// Complete `job` frames in a journal's current contents.
std::size_t job_frames(const std::string& journal) {
  std::istringstream in(read_file(journal));
  std::string line;
  std::size_t frames = 0;
  while (std::getline(in, line)) {
    frames += line.rfind("job ", 0) == 0 && !in.eof();
  }
  return frames;
}

// 48 jobs on a three-thread pool: about half a second on a 4-core x86
// host in Release, so a kill lands mid-campaign.
constexpr const char* kKillSpec = R"([campaign]
name = kill_resume
trials = 40
seeds = 0..11
threads = 3

[graph]
family = random_regular
n = 4096, 8192
r = 8

[process]
name = cobra, bips
k = 2
record_curve = 0
)";

TEST(ScenarioRunner, SigkillThenResumeMatchesSerialRun) {
  const std::string dir = cobra::test_temp_dir();
  const std::string spec = dir + "runner_kill.scenario";
  const std::string stem = dir + "runner_kill";
  const std::string serial = dir + "runner_kill_serial";
  write_file(spec, kKillSpec);
  remove_outputs(stem);
  remove_outputs(serial);

  const pid_t pid = spawn(
      {kRunner, spec, "--output", stem, "--fresh", "--quiet"}, stem + ".log");
  ASSERT_GT(pid, 0);
  std::size_t seen = 0;
  int status = 0;
  bool exited = false;
  while ((seen = job_frames(stem + ".journal")) < 8) {
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(exited) << "the campaign ended before 8 job frames were "
                          "seen (too little work per job?): "
                       << read_file(stem + ".log");
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  status = wait_for(pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was not killed by the signal (status " << status << ")";
  EXPECT_TRUE(read_file(stem + ".jsonl").empty());

  ASSERT_TRUE(run_ok({kRunner, spec, "--output", stem}, stem + ".log"));
  const std::string summary = read_file(stem + ".log");
  std::size_t done = 0;
  std::size_t resumed = 0;
  const std::size_t at = summary.find("campaign 'kill_resume': ");
  ASSERT_NE(at, std::string::npos) << summary;
  ASSERT_EQ(std::sscanf(summary.c_str() + at,
                        "campaign 'kill_resume': %zu/48 jobs done (%zu resumed",
                        &done, &resumed),
            2)
      << summary;
  EXPECT_EQ(done, 48u);
  EXPECT_GE(resumed, seen) << "frames on disk before the kill were lost";

  ASSERT_TRUE(run_ok({kRunner, spec, "--output", serial, "--fresh",
                      "--threads", "0", "--quiet"},
                     serial + ".log"));
  const std::string jsonl = read_file(stem + ".jsonl");
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl, read_file(serial + ".jsonl"));
  EXPECT_EQ(read_file(stem + ".csv"), read_file(serial + ".csv"));
  remove_outputs(stem);
  remove_outputs(serial);
  std::remove(spec.c_str());
}

// 64 cheap jobs: their journal frames need about 16 KiB.
constexpr const char* kSmallJobsSpec = R"([campaign]
name = full_disk
trials = 2
seeds = 0..31

[graph]
family = cycle
n = 16, 32

[process]
name = cobra
k = 2
)";

TEST(ScenarioRunner, JournalWriteFailureExitsOneNamingTheJournal) {
  const std::string dir = cobra::test_temp_dir();
  const std::string spec = dir + "runner_full.scenario";
  const std::string stem = dir + "runner_full";
  write_file(spec, kSmallJobsSpec);
  remove_outputs(stem);
  // A 4 KiB file-size limit with SIGXFSZ ignored: writes past it fail
  // with EFBIG, as they would with ENOSPC on a full disk.
  int spawn_error = 0;
  const pid_t pid = spawn(
      {"bash", "-c", "trap '' XFSZ; ulimit -f 4; exec \"$0\" \"$@\"",
       kRunner, spec, "--output", stem, "--fresh", "--quiet"},
      stem + ".log", &spawn_error);
  if (spawn_error == ENOENT) {
    std::remove(spec.c_str());
    GTEST_SKIP() << "bash not found; it sets the file-size limit";
  }
  ASSERT_EQ(spawn_error, 0) << "cannot spawn bash";
  ASSERT_GT(pid, 0);
  const int status = wait_for(pid);
  const std::string log = read_file(stem + ".log");
  ASSERT_TRUE(WIFEXITED(status)) << log;
  EXPECT_EQ(WEXITSTATUS(status), 1) << log;
  EXPECT_NE(log.find("journal '" + stem + ".journal'"), std::string::npos)
      << log;
  EXPECT_EQ(log.find("wrote "), std::string::npos) << log;
  EXPECT_TRUE(read_file(stem + ".jsonl").empty());
  remove_outputs(stem);
  std::remove(spec.c_str());
}

TEST(ScenarioRunner, ProgressFlagTakesTheSpecKeysRangeCheck) {
  const std::string dir = cobra::test_temp_dir();
  const std::string spec = dir + "runner_progress.scenario";
  const std::string stem = dir + "runner_progress";
  write_file(spec, kSmallJobsSpec);
  for (const char* value : {"nan", "inf", "-5"}) {
    remove_outputs(stem);
    const pid_t pid = spawn({kRunner, spec, "--output", stem, "--fresh",
                             "--quiet", "--progress", value},
                            stem + ".log");
    ASSERT_GT(pid, 0);
    const int status = wait_for(pid);
    const std::string log = read_file(stem + ".log");
    ASSERT_TRUE(WIFEXITED(status)) << log;
    EXPECT_EQ(WEXITSTATUS(status), 1) << value << ": " << log;
    EXPECT_NE(log.find("[telemetry] progress expects an interval"),
              std::string::npos)
        << log;
    EXPECT_TRUE(read_file(stem + ".jsonl").empty()) << value;
  }
  remove_outputs(stem);
  std::remove(spec.c_str());
}

}  // namespace
