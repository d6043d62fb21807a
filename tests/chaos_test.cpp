// Daemon/network chaos harness: the durable-execution acceptance tests.
// Real `mfdft_jobd` / `mfdft_campaign` processes (paths injected by CMake)
// are crashed mid-batch with injected faults — hard _Exit, torn journal
// tail, dropped daemon connection, SIGTERM drain — and resumed; every
// scenario must end with a results file byte-identical to an uninterrupted
// run, re-executing only the jobs the journal does not already answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "svc/daemon.hpp"
#include "svc/job.hpp"

namespace mfd::svc {
namespace {

namespace fs = std::filesystem;

/// Runs a shell command and returns its exit status (-1 if not a clean
/// exit). Faulted children _Exit(kFaultExitCode), which WEXITSTATUS sees.
int run_cmd(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Number of *complete* journal records on disk: a line counts only when
/// its declared payload length matches the bytes actually present, so a
/// torn tail (half a record, magic included) is not counted.
int journal_records(const fs::path& journal_dir) {
  std::ifstream in(journal_dir / "results.journal", std::ios::binary);
  int records = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("MFDJ1 ", 0) != 0) continue;
    // MFDJ1 <index> <hi> <lo> <len> <cksum> <payload>
    std::istringstream fields(line);
    std::string magic, index, hi, lo, cksum;
    std::size_t len = 0;
    if (!(fields >> magic >> index >> hi >> lo >> len >> cksum)) continue;
    const std::size_t header =
        magic.size() + index.size() + hi.size() + lo.size() +
        std::to_string(len).size() + cksum.size() + 6;  // 6 separators
    if (line.size() == header + len) ++records;
  }
  return records;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mfdft_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // The acceptance workload: 2 chips x 3 job kinds, all deterministic
    // (no deadlines), so an uninterrupted run's bytes are the oracle.
    std::ofstream jobs(jobs_path());
    for (const char* chip : {"figure4_chip", "IVD_chip"}) {
      for (const JobKind kind :
           {JobKind::kTestgen, JobKind::kCoverage, JobKind::kDiagnosis}) {
        JobSpec spec;
        spec.kind = kind;
        spec.id = std::string(to_string(kind)) + ":" + chip;
        spec.chip = chip;
        jobs << spec.to_json().dump() << '\n';
      }
    }
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] fs::path jobs_path() const { return dir_ / "jobs.jsonl"; }
  [[nodiscard]] fs::path journal_dir() const { return dir_ / "journal"; }

  /// One uninterrupted run — the byte oracle every resume must match.
  [[nodiscard]] std::string baseline() {
    const fs::path out = dir_ / "baseline.jsonl";
    const int rc = run_cmd(std::string(MFDFT_JOBD_BIN) + " --in " +
                           jobs_path().string() + " --out " + out.string() +
                           " 2>/dev/null");
    EXPECT_EQ(rc, 0);
    return read_file(out);
  }

  /// Batch-mode jobd invocation with a journal; `env` prefixes the command
  /// (fault injection), `extra` appends flags (--resume, --workers ...).
  int run_jobd_tool(const fs::path& out, const std::string& env,
                    const std::string& extra) {
    return run_cmd(env + std::string(MFDFT_JOBD_BIN) + " --in " +
                   jobs_path().string() + " --out " + out.string() +
                   " --journal " + journal_dir().string() + " " + extra +
                   " 2>/dev/null");
  }

  fs::path dir_;
};

TEST_F(ChaosTest, DaemonCrashThenResumeIsByteIdentical) {
  const std::string oracle = baseline();

  // Serial execution (threads=1) completes jobs in input order, so a crash
  // fired after job 2's result leaves *exactly* records 0..2 durable.
  const fs::path out = dir_ / "results.jsonl";
  const int crashed = run_jobd_tool(
      out, "MFDFT_FAULT_INJECT=daemon_crash@job=2 ", "--threads 1");
  EXPECT_EQ(crashed, kFaultExitCode);
  EXPECT_EQ(journal_records(journal_dir()), 3);
  // The crash killed the driver before emission: no results file bytes.
  EXPECT_EQ(read_file(out), "");

  const int resumed = run_jobd_tool(out, "", "--threads 1 --resume");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);
  // Only the 3 incomplete jobs were re-run: the journal grew from 3 to 6.
  EXPECT_EQ(journal_records(journal_dir()), 6);
}

TEST_F(ChaosTest, CrashedWorkerBatchResumesByteIdentical) {
  const std::string oracle = baseline();

  // Worker-mode supervisor: completions are not in input order, so only
  // the crash point is pinned — at least job 2's record must be durable.
  const fs::path out = dir_ / "results.jsonl";
  const int crashed = run_jobd_tool(
      out, "MFDFT_FAULT_INJECT=daemon_crash@job=2 ", "--workers 2");
  EXPECT_EQ(crashed, kFaultExitCode);
  EXPECT_GE(journal_records(journal_dir()), 1);

  const int resumed = run_jobd_tool(out, "", "--workers 2 --resume");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);
  EXPECT_EQ(journal_records(journal_dir()), 6);
}

TEST_F(ChaosTest, TornJournalTailIsRejectedAndRecomputedOnResume) {
  const std::string oracle = baseline();

  // journal_torn_tail writes half of job 1's record, then kills the
  // driver — the torn-write crash a real power loss produces.
  const fs::path out = dir_ / "results.jsonl";
  const int crashed = run_jobd_tool(
      out, "MFDFT_FAULT_INJECT=journal_torn_tail@job=1 ", "--threads 1");
  EXPECT_EQ(crashed, kFaultExitCode);
  EXPECT_EQ(journal_records(journal_dir()), 1);  // job 0 only; job 1 is torn

  const int resumed = run_jobd_tool(out, "", "--threads 1 --resume");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);
  // The torn record was truncated away and job 1 recomputed: 1 adopted,
  // 5 fresh appends.
  EXPECT_EQ(journal_records(journal_dir()), 6);
}

TEST_F(ChaosTest, DroppedDaemonConnectionResumesByteIdentical) {
  const std::string oracle = baseline();

  // Hermetic daemon: in-process, ephemeral port, this test's lifetime.
  DaemonOptions daemon_options;
  daemon_options.executors = 2;
  JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());
  const std::string connect =
      " --connect 127.0.0.1:" + std::to_string(daemon.port());

  // conn_drop kills the client's socket after the 3rd result line was
  // journaled — a mid-stream partition. The tool exits with the typed
  // resumable status and writes no results file bytes.
  const fs::path out = dir_ / "results.jsonl";
  const int dropped =
      run_cmd("MFDFT_FAULT_INJECT=conn_drop@job=2 " +
              std::string(MFDFT_JOBD_BIN) + connect + " --in " +
              jobs_path().string() + " --out " + out.string() + " --journal " +
              journal_dir().string() + " 2>/dev/null");
  EXPECT_EQ(dropped, 4);
  EXPECT_EQ(journal_records(journal_dir()), 3);
  EXPECT_EQ(read_file(out), "");

  const int resumed =
      run_cmd(std::string(MFDFT_JOBD_BIN) + connect + " --in " +
              jobs_path().string() + " --out " + out.string() + " --journal " +
              journal_dir().string() + " --resume 2>/dev/null");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);
  EXPECT_EQ(journal_records(journal_dir()), 6);
  daemon.stop();
}

TEST_F(ChaosTest, SigtermDrainsTypedAndResumesByteIdentical) {
  const std::string oracle = baseline();

  // Run the batch as a child on one worker process that wedges on job 3:
  // jobs 0..2 complete and are journaled in order, and job 3 cannot finish
  // before the SIGTERM lands. The driver must drain (typed exit 4), not
  // die: the stall watchdog kills the wedged worker, job 3 and the
  // unstarted jobs come back "cancelled", and the journal keeps jobs 0..2.
  const fs::path out = dir_ / "results.jsonl";
  ::setenv(kFaultInjectEnv, "worker_stall@job=3", 1);
  const pid_t child = ::fork();
  if (child == 0) {
    // Its own process group, so a driver that dies instead of draining
    // cannot leave the wedged worker behind.
    ::setpgid(0, 0);
    const std::string in = jobs_path().string();
    const std::string out_str = out.string();
    const std::string journal = journal_dir().string();
    ::execl(MFDFT_JOBD_BIN, MFDFT_JOBD_BIN, "--in", in.c_str(), "--out",
            out_str.c_str(), "--journal", journal.c_str(), "--workers", "1",
            "--stall-timeout-s", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::unsetenv(kFaultInjectEnv);
  ASSERT_GT(child, 0);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (journal_records(journal_dir()) < 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(journal_records(journal_dir()), 3);
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  (void)::kill(-child, SIGKILL);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 4);

  // The drained run emitted a full results file with "cancelled" rows;
  // resume replaces them with real results, byte-identical to the oracle.
  std::istringstream drained(read_file(out));
  std::string line;
  int lines = 0;
  int cancelled = 0;
  while (std::getline(drained, line)) {
    ++lines;
    const Json result = Json::parse(line);
    if (result.at("status").at("outcome").as_string() == "cancelled") {
      ++cancelled;
    }
  }
  EXPECT_EQ(lines, 6);
  EXPECT_EQ(cancelled, 3);
  const int resumed = run_jobd_tool(out, "", "--threads 1 --resume");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);
  EXPECT_EQ(journal_records(journal_dir()), 6);
}

TEST_F(ChaosTest, CampaignCrashThenResumeIsByteIdentical) {
  // End-to-end over the campaign driver: uninterrupted smoke campaign as
  // the oracle, then a crashed + resumed one, compared byte for byte.
  const fs::path oracle_out = dir_ / "campaign_base.jsonl";
  ASSERT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) +
                    " --preset smoke --threads 1 --out " +
                    oracle_out.string() + " 2>/dev/null"),
            0);
  const std::string oracle = read_file(oracle_out);
  ASSERT_FALSE(oracle.empty());

  const fs::path out = dir_ / "campaign.jsonl";
  const fs::path json = dir_ / "campaign.json";
  const int crashed =
      run_cmd("MFDFT_FAULT_INJECT=daemon_crash@job=3 " +
              std::string(MFDFT_CAMPAIGN_BIN) +
              " --preset smoke --threads 1 --out " + out.string() +
              " --journal " + journal_dir().string() + " 2>/dev/null");
  EXPECT_EQ(crashed, kFaultExitCode);
  EXPECT_EQ(journal_records(journal_dir()), 4);

  const int resumed = run_cmd(
      std::string(MFDFT_CAMPAIGN_BIN) + " --preset smoke --threads 1 --out " +
      out.string() + " --json " + json.string() + " --journal " +
      journal_dir().string() + " --resume 2>/dev/null");
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(read_file(out), oracle);

  // The resumed report carries the recovery accounting (satellite: the
  // BENCH_campaign.json schema gained jobs_resumed & friends).
  const std::string report = read_file(json);
  EXPECT_NE(report.find("\"jobs_resumed\":4"), std::string::npos) << report;
  EXPECT_NE(report.find("\"jobs_retried\""), std::string::npos);
  EXPECT_NE(report.find("\"workers_lost\""), std::string::npos);
}

/// Multiport suites shared by a campaign member's jobs (the execution
/// core's JobContext, svc/run_job.hpp) through the real tools.
class SuiteMemoTest : public ChaosTest {};

TEST_F(SuiteMemoTest, ScalePresetIsByteEqualAcrossThreadsWorkersAndResume) {
  // The scale campaign: a member's jobs share a suite in different orders
  // at 1, 2 and 4 threads, not at all under worker processes, and only in
  // part after a crash at job 10 and a resume.
  const std::string campaign =
      std::string(MFDFT_CAMPAIGN_BIN) + " --preset scale";
  const auto run = [&](const std::string& flags, const std::string& name) {
    const fs::path out = dir_ / name;
    EXPECT_EQ(run_cmd(campaign + " " + flags + " --out " + out.string() +
                      " 2>/dev/null"),
              0)
        << flags;
    return read_file(out);
  };
  const std::string oracle = run("--threads 1", "t1.jsonl");
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run("--threads 2", "t2.jsonl"), oracle);
  EXPECT_EQ(run("--threads 4", "t4.jsonl"), oracle);
  EXPECT_EQ(run("--workers 2", "w2.jsonl"), oracle);

  EXPECT_EQ(run_cmd("MFDFT_FAULT_INJECT=daemon_crash@job=10 " + campaign +
                    " --threads 1 --out " + (dir_ / "resumed.jsonl").string() +
                    " --journal " + journal_dir().string() + " 2>/dev/null"),
            kFaultExitCode);
  EXPECT_EQ(journal_records(journal_dir()), 11);
  EXPECT_EQ(run("--threads 1 --journal " + journal_dir().string() +
                    " --resume",
                "resumed.jsonl"),
            oracle);
}

TEST_F(ChaosTest, CampaignThroughDaemonMatchesInProcessRun) {
  // --connect: the in-process run's results bytes and report counters, and
  // the campaign's own wall time.
  const fs::path local_out = dir_ / "local.jsonl";
  const fs::path local_json = dir_ / "local.json";
  ASSERT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) + " --preset smoke --out " +
                    local_out.string() + " --json " + local_json.string() +
                    " 2>/dev/null"),
            0);

  // One executor runs the daemon's queue in order, so a member's jobs wait
  // there together and share its suite as they do in a local batch.
  DaemonOptions daemon_options;
  daemon_options.executors = 1;
  JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());
  const fs::path out = dir_ / "connect.jsonl";
  const fs::path json = dir_ / "connect.json";
  EXPECT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) +
                    " --preset smoke --connect 127.0.0.1:" +
                    std::to_string(daemon.port()) + " --out " + out.string() +
                    " --json " + json.string() + " 2>/dev/null"),
            0);
  daemon.stop();
  EXPECT_GT(daemon.metrics().suites_reused, 0);

  EXPECT_EQ(read_file(out), read_file(local_out));
  const Json local = Json::parse(read_file(local_json));
  const Json remote = Json::parse(read_file(json));
  EXPECT_GT(remote.at("wall_seconds").as_double(), 0.0);
  // The daemon counts the suites its jobs reused; its client, which sees
  // only results, counts none.
  EXPECT_EQ(local.at("suites_reused").as_int(), 4);
  EXPECT_EQ(remote.at("suites_reused").as_int(), 0);
  for (const auto& [key, value] : local.as_object()) {
    if (key == "wall_seconds" || key == "rows") continue;  // wall clocks
    if (key == "suites_reused") continue;  // checked above
    EXPECT_EQ(remote.at(key).dump(), value.dump()) << key;
  }
}

TEST_F(ChaosTest, SmokeCampaignDetectsEveryFaultItCounts) {
  // Every row adds its fault universe to the totals, a diagnosis row with
  // the faults its suite does not leave undetected: the smoke suites
  // detect them all.
  const fs::path json = dir_ / "smoke.json";
  ASSERT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) + " --preset smoke --json " +
                    json.string() + " 2>/dev/null"),
            0);
  const Json report = Json::parse(read_file(json));
  EXPECT_GT(report.at("faults_total").as_int(), 0);
  EXPECT_EQ(report.at("faults_detected").as_int(),
            report.at("faults_total").as_int());
  int diagnosis_rows = 0;
  for (const Json& row : report.at("rows").as_array()) {
    if (row.at("kind").as_string() != "diagnosis") continue;
    ++diagnosis_rows;
    EXPECT_GT(row.at("total_faults").as_int(), 0);
    EXPECT_EQ(row.at("detected_faults").as_int(),
              row.at("total_faults").as_int());
    EXPECT_EQ(row.at("coverage").as_double(), 1.0);
  }
  EXPECT_EQ(diagnosis_rows, 2);
}

TEST_F(ChaosTest, FailedJobExitsThreeThroughDaemonAsInBatchMode) {
  {
    std::ofstream jobs(jobs_path(), std::ios::app);
    JobSpec spec;
    spec.id = "no-such-chip";
    spec.chip = "no_such_chip";  // answered invalid_options
    jobs << spec.to_json().dump() << '\n';
  }
  const fs::path batch_out = dir_ / "batch.jsonl";
  EXPECT_EQ(run_cmd(std::string(MFDFT_JOBD_BIN) + " --in " +
                    jobs_path().string() + " --out " + batch_out.string() +
                    " 2>/dev/null"),
            3);

  DaemonOptions daemon_options;
  daemon_options.executors = 2;
  JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());
  const fs::path out = dir_ / "connect.jsonl";
  EXPECT_EQ(run_cmd(std::string(MFDFT_JOBD_BIN) + " --connect 127.0.0.1:" +
                    std::to_string(daemon.port()) + " --in " +
                    jobs_path().string() + " --out " + out.string() +
                    " 2>/dev/null"),
            3);
  daemon.stop();
  EXPECT_EQ(read_file(out), read_file(batch_out));
}

TEST_F(ChaosTest, ConnectExitsTwoOnIoErrorsAsBatchModeDoes) {
  // An output that cannot be written and a journal directory that cannot
  // be created are I/O errors, exit 2, whether the batch runs locally or on
  // a daemon, in both tools.
  DaemonOptions daemon_options;
  daemon_options.executors = 2;
  JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());
  const fs::path not_a_dir = dir_ / "file";
  std::ofstream(not_a_dir) << "a file, not a directory\n";
  const std::string bad_journal =
      " --journal " + (not_a_dir / "journal").string() + " 2>/dev/null";
  for (const std::string& mode :
       {std::string(), " --connect 127.0.0.1:" + std::to_string(daemon.port())}) {
    const std::string jobd =
        std::string(MFDFT_JOBD_BIN) + mode + " --in " + jobs_path().string();
    EXPECT_EQ(run_cmd(jobd + " --out /dev/full 2>/dev/null"), 2) << mode;
    EXPECT_EQ(run_cmd(jobd + " --out " + (dir_ / "out.jsonl").string() +
                      bad_journal),
              2)
        << mode;
    EXPECT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) + " --preset smoke" +
                      mode + bad_journal),
              2)
        << mode;
  }
  daemon.stop();
}

TEST_F(ChaosTest, CampaignOpensItsOutputsBeforeItRuns) {
  // An output that cannot be opened fails the campaign at once: exit 2,
  // before any job runs or is journaled.
  const std::string campaign = std::string(MFDFT_CAMPAIGN_BIN) +
                               " --preset smoke --journal " +
                               journal_dir().string();
  const std::string unopenable = (dir_ / "no_such_dir" / "x").string();
  for (const std::string& output :
       {" --out " + unopenable, " --json " + unopenable}) {
    EXPECT_EQ(run_cmd(campaign + output + " 2>/dev/null"), 2) << output;
    EXPECT_EQ(journal_records(journal_dir()), 0) << output;
  }
  // A spec value its field cannot hold is refused as the spec is read.
  const fs::path spec = dir_ / "campaign.json";
  std::ofstream(spec) << R"({"tiers":[{"family":{"count":4294967298}}]})";
  EXPECT_EQ(run_cmd(std::string(MFDFT_CAMPAIGN_BIN) + " --spec " +
                    spec.string() + " 2>/dev/null"),
            2);
}

TEST_F(ChaosTest, ConnectResumeOfACompleteJournalNeedsNoDaemon) {
  const std::string oracle = baseline();

  DaemonOptions daemon_options;
  daemon_options.executors = 2;
  JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());
  const std::string client =
      std::string(MFDFT_JOBD_BIN) + " --connect 127.0.0.1:" +
      std::to_string(daemon.port()) + " --in " + jobs_path().string() +
      " --journal " + journal_dir().string();
  const fs::path first = dir_ / "first.jsonl";
  EXPECT_EQ(run_cmd(client + " --out " + first.string() + " 2>/dev/null"), 0);
  EXPECT_EQ(read_file(first), oracle);
  EXPECT_EQ(journal_records(journal_dir()), 6);
  daemon.stop();

  // Every job is journaled, so the resume runs nothing and never connects:
  // the stopped daemon's port refuses connections.
  const fs::path resumed = dir_ / "resumed.jsonl";
  EXPECT_EQ(run_cmd(client + " --resume --out " + resumed.string() +
                    " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(resumed), oracle);
}

TEST_F(ChaosTest, MalformedNumericFlagsExitTwo) {
  // Each value is rejected while the flags are read: nothing starts.
  const std::string jobd = std::string(MFDFT_JOBD_BIN) + " --in " +
                           jobs_path().string() + " --out " +
                           (dir_ / "out.jsonl").string();
  for (const char* flags :
       {"--threads 4x", "--threads abc", "--cache-mb 12abc", "--cache-mb -1",
        "--deadline-s fast", "--deadline-s nan", "--workers 1e3",
        "--max-attempts 99999999999"}) {
    EXPECT_EQ(run_cmd(jobd + " " + flags + " 2>/dev/null"), 2) << flags;
  }
  const std::string campaign = std::string(MFDFT_CAMPAIGN_BIN) +
                               " --emit-jobs " + (dir_ / "jobs").string();
  for (const char* flags : {"--threads x", "--cache-mb 12abc",
                            "--cache-mb -1", "--workers 2.5"}) {
    EXPECT_EQ(run_cmd(campaign + " " + flags + " 2>/dev/null"), 2) << flags;
  }
}

/// One flag that one tool mode never reads.
struct UnreadFlag {
  std::string binary;
  /// The arguments that select the mode, and the mode as the refusal
  /// names it.
  std::string mode_args;
  std::string mode;
  std::string flag;
  /// Test name: the tool, the mode and the flag.
  std::string name;
};

/// A value for each flag a mode may refuse ("" for a switch). The paths
/// cannot be opened: a refused flag is never acted on.
std::string value_of(const std::string& flag) {
  static const std::map<std::string, std::string> values = {
      {"--in", "/nonexistent/in"},       {"--out", "/nonexistent/out"},
      {"--threads", "7"},                {"--workers", "2"},
      {"--stall-timeout-s", "5"},        {"--max-attempts", "2"},
      {"--deadline-s", "0.001"},         {"--cache-dir", "/nonexistent/c"},
      {"--cache-mb", "8"},               {"--queue-capacity", "4"},
      {"--journal", "/nonexistent/j"},   {"--resume", ""},
      {"--trace", "/nonexistent/t"},     {"--priority", "bulk"},
      {"--worker", ""},                  {"--jobd-bin", "/nonexistent/b"},
      {"--connect", "127.0.0.1:1"},      {"--json", "/nonexistent/r"}};
  return values.at(flag);
}

std::vector<UnreadFlag> unread_flags() {
  struct Mode {
    std::string binary, args, name, label;
    std::vector<std::string> unread;
  };
  const std::string jobd = MFDFT_JOBD_BIN;
  const std::string campaign = MFDFT_CAMPAIGN_BIN;
  const std::vector<std::string> worker_unread = {
      "--in",       "--out",          "--threads",    "--workers",
      "--stall-timeout-s", "--max-attempts", "--deadline-s", "--journal",
      "--resume",   "--trace",        "--priority",   "--queue-capacity"};
  // Port 1 refuses connections: a client that got as far as connecting
  // would report that instead of the refusal.
  const std::vector<Mode> modes = {
      {jobd,
       "",
       "batch",
       "jobd_batch",
       {"--priority", "--queue-capacity", "--stall-timeout-s",
        "--max-attempts"}},
      {jobd,
       "--workers 2",
       "--workers",
       "jobd_workers",
       {"--threads", "--priority", "--queue-capacity"}},
      {jobd,
       "--listen 127.0.0.1:0",
       "--listen",
       "jobd_listen",
       {"--in", "--out", "--workers", "--stall-timeout-s", "--journal",
        "--resume", "--trace", "--priority", "--worker"}},
      {jobd,
       "--connect 127.0.0.1:1",
       "--connect",
       "jobd_connect",
       {"--threads", "--workers", "--stall-timeout-s", "--max-attempts",
        "--deadline-s", "--cache-dir", "--cache-mb", "--queue-capacity",
        "--trace"}},
      {jobd, "--worker", "--worker", "jobd_worker", worker_unread},
      {jobd, "--worker --connect 127.0.0.1:1", "--worker",
       "jobd_remote_worker", worker_unread},
      {campaign,
       "--preset smoke",
       "batch",
       "campaign_batch",
       {"--priority", "--jobd-bin"}},
      {campaign,
       "--preset smoke --workers 2",
       "--workers",
       "campaign_workers",
       {"--threads", "--priority"}},
      {campaign,
       "--preset smoke --emit-jobs /nonexistent/jobs",
       "--emit-jobs",
       "campaign_emit_jobs",
       {"--out", "--json", "--threads", "--workers", "--jobd-bin",
        "--connect", "--priority", "--cache-dir", "--cache-mb", "--journal",
        "--resume"}},
      {campaign,
       "--preset smoke --connect 127.0.0.1:1",
       "--connect",
       "campaign_connect",
       {"--threads", "--workers", "--jobd-bin", "--cache-dir", "--cache-mb"}},
  };
  std::vector<UnreadFlag> cases;
  for (const Mode& mode : modes) {
    for (const std::string& flag : mode.unread) {
      std::string name = mode.label + "_" + flag.substr(2);
      std::replace(name.begin(), name.end(), '-', '_');
      cases.push_back({mode.binary, mode.args, mode.name, flag, name});
    }
  }
  return cases;
}

class ModeFlagTest : public ::testing::TestWithParam<UnreadFlag> {};

TEST_P(ModeFlagTest, RefusesAFlagItsModeNeverReads) {
  // Exit 2 with one stderr line naming the flag and the mode, before the
  // mode starts. Had it started, a daemon would run until `timeout` kills
  // it (124), a worker would read its empty stdin and exit 0, a client
  // would report the refused connection, and a batch would run.
  const UnreadFlag& unread = GetParam();
  const fs::path err =
      fs::temp_directory_path() /
      ("mfdft_flag_" + std::to_string(::getpid()) + "_" + unread.name);
  const int rc = run_cmd("timeout 30 " + unread.binary + " " +
                         unread.mode_args + " " + unread.flag + " " +
                         value_of(unread.flag) + " < /dev/null 2> " +
                         err.string());
  const std::string message = read_file(err);
  fs::remove(err);
  EXPECT_EQ(rc, 2);
  EXPECT_EQ(message, unread.binary + ": " + unread.flag + " does nothing in " +
                         unread.mode + " mode\n");
}

INSTANTIATE_TEST_SUITE_P(
    ChaosTest, ModeFlagTest, ::testing::ValuesIn(unread_flags()),
    [](const ::testing::TestParamInfo<UnreadFlag>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mfd::svc
