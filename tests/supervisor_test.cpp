// Crash-isolation acceptance tests: worker-pipe executors of the job core
// must match in-process execution byte-for-byte, and every injected
// failure mode — abort, poison pill, stall, torn output line, unspawnable
// worker — must end with the batch complete and typed.
//
// Workers are real `mfdft_jobd --worker` subprocesses (path injected by
// CMake as MFDFT_JOBD_BIN), so these tests cover the spawn/pipe/reap layer
// as well as the recovery logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/syscall.h>
#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "net/framed.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"

namespace mfd::svc {
namespace {

/// Batch options running on `workers` real worker subprocesses.
JobdOptions worker_options(int workers) {
  JobdOptions options;
  options.workers = workers;
  options.worker_command = {MFDFT_JOBD_BIN, "--worker"};
  return options;
}

/// Runs every spec of the batch; `metrics` (optional) receives its metrics,
/// and `on_result` (optional) sees each result as it arrives.
std::vector<JobResult> run(
    const std::vector<JobSpec>& specs, const JobdOptions& options,
    ServiceMetrics* metrics = nullptr,
    const std::function<void(const JobResult&)>& on_result = {}) {
  std::vector<int> slots(specs.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<JobResult> results(specs.size());
  const ServiceMetrics m =
      run_batch(specs, slots, results, options, nullptr, on_result);
  if (metrics != nullptr) *metrics = m;
  return results;
}

/// The acceptance workload: 3 chips x 3 workload kinds, 9 jobs.
std::vector<JobSpec> nine_jobs() {
  std::vector<JobSpec> specs;
  for (const char* chip : {"figure4_chip", "IVD_chip", "RA30_chip"}) {
    for (const JobKind kind :
         {JobKind::kTestgen, JobKind::kCoverage, JobKind::kDiagnosis}) {
      JobSpec spec;
      spec.kind = kind;
      spec.id = std::string(to_string(kind)) + ":" + chip;
      spec.chip = chip;
      specs.push_back(spec);
    }
  }
  return specs;
}

std::vector<std::string> result_lines(const std::vector<JobResult>& results) {
  std::vector<std::string> lines;
  for (const JobResult& result : results) {
    lines.push_back(result.to_json().dump());
  }
  return lines;
}

/// In-process ground truth for the same batch.
std::vector<std::string> dispatcher_baseline(
    const std::vector<JobSpec>& specs) {
  JobdOptions options;
  options.threads = 2;
  return result_lines(run(specs, options));
}

TEST(SupervisorTest, CrashFreeRunMatchesInProcessByteForByte) {
  const std::vector<JobSpec> specs = nine_jobs();
  ServiceMetrics metrics;
  const std::vector<JobResult> results =
      run(specs, worker_options(3), &metrics);

  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, static_cast<int>(i));
  }
  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.jobs_retried, 0);
  EXPECT_EQ(metrics.jobs_quarantined, 0);
  EXPECT_EQ(metrics.workers_lost, 0);
}

TEST(SupervisorTest, AbortedWorkerJobIsRetriedElsewhereAndBatchCompletes) {
  const std::vector<JobSpec> specs = nine_jobs();
  JobdOptions options = worker_options(2);
  options.fault_inject = "worker_abort@job=3:times=1";
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, options, &metrics);

  // The crash is invisible in the results: every job, including job 3's
  // retry on a fresh worker, is byte-identical to a crash-free run.
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));

  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.jobs_retried, 1);
  EXPECT_EQ(metrics.jobs_quarantined, 0);
  EXPECT_GE(metrics.workers_lost, 1);
}

TEST(SupervisorTest, PoisonJobIsQuarantinedAsUnavailable) {
  const std::vector<JobSpec> specs = nine_jobs();
  JobdOptions options = worker_options(2);
  options.fault_inject = "worker_abort@job=4";  // every attempt: poison pill
  options.max_attempts = 2;
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, options, &metrics);

  ASSERT_EQ(results.size(), specs.size());
  const JobResult& poisoned = results[4];
  EXPECT_EQ(poisoned.status.outcome, Outcome::kUnavailable);
  EXPECT_EQ(poisoned.status.stage, "worker");
  // The message names the crash: SIGABRT (signal 6) from std::abort().
  EXPECT_NE(poisoned.status.message.find("signal 6"), std::string::npos)
      << poisoned.status.message;
  EXPECT_NE(poisoned.status.message.find("2 worker crashes"),
            std::string::npos)
      << poisoned.status.message;

  // The other eight jobs are untouched by the poison pill.
  const std::vector<std::string> baseline = dispatcher_baseline(specs);
  const std::vector<std::string> lines = result_lines(results);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 4) continue;
    EXPECT_EQ(lines[i], baseline[i]) << "job " << i;
  }

  EXPECT_EQ(metrics.jobs_ok, 8);
  EXPECT_EQ(metrics.jobs_failed, 1);
  EXPECT_EQ(metrics.jobs_quarantined, 1);
  EXPECT_EQ(metrics.jobs_retried, 1);     // attempt 2 was still a retry
  EXPECT_GE(metrics.workers_lost, 2);
}

TEST(SupervisorTest, StalledWorkerIsKilledByWatchdogAndJobRetried) {
  const std::vector<JobSpec> specs = nine_jobs();
  JobdOptions options = worker_options(2);
  options.fault_inject = "worker_stall@job=2:times=1";
  // One watchdog period is the test's only wait. The timeout must beat a
  // *healthy* job's runtime even under sanitizer slowdown and a loaded CI
  // machine — a too-tight value makes the watchdog (correctly) kill slow
  //-but-alive workers, and max_attempts stays generous for the same
  // reason: a spurious kill is retried with identical bytes, only a
  // spurious quarantine could fail the batch.
  options.stall_timeout_s = 2.0;
  options.max_attempts = 10;
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, options, &metrics);

  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));
  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.jobs_quarantined, 0);
  EXPECT_GE(metrics.jobs_retried, 1);  // >= : a slow CI box may add kills
  EXPECT_GE(metrics.workers_lost, 1);
}

TEST(SupervisorTest, TruncatedResultLineCountsAsWorkerLoss) {
  const std::vector<JobSpec> specs = nine_jobs();
  JobdOptions options = worker_options(2);
  options.fault_inject = "truncate_output@job=1:times=1";
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, options, &metrics);

  // The torn half-line is discarded with the dead worker, never parsed
  // into a bogus result: the retry's bytes are the crash-free bytes.
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));
  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.jobs_retried, 1);
  EXPECT_GE(metrics.workers_lost, 1);
}

TEST(SupervisorTest, SpawnFailureDegradesToInProcessExecution) {
  const std::vector<JobSpec> specs = nine_jobs();
  JobdOptions options = worker_options(2);
  options.worker_command = {"/nonexistent/mfdft_worker_binary", "--worker"};
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, options, &metrics);

  // No worker ever spawned, yet the batch completes with the same bytes,
  // and the summary line shows both lost workers.
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));
  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.workers_lost, 2);
  EXPECT_EQ(metrics.jobs_remote, 0);
}

TEST(SupervisorTest, ValidateRejectsBadOptions) {
  const JobdOptions good = worker_options(2);
  EXPECT_TRUE(good.validate().ok());

  JobdOptions bad = good;
  bad.workers = -1;
  bad.max_attempts = 0;
  bad.stall_timeout_s = -1.0;
  const Status status = bad.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_NE(status.message.find("workers"), std::string::npos);
  EXPECT_NE(status.message.find("max_attempts"), std::string::npos);

  JobdOptions no_argv = good;
  no_argv.worker_command.clear();
  EXPECT_FALSE(no_argv.validate().ok());
}

TEST(SupervisorTest, BackoffDelayIsDeterministicBoundedAndGrowing) {
  const double d1 = backoff_delay_s(7, 3, 1);
  EXPECT_EQ(d1, backoff_delay_s(7, 3, 1));  // reproducible
  EXPECT_NE(d1, backoff_delay_s(8, 3, 1));  // seed-sensitive

  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double delay = backoff_delay_s(7, 3, attempt);
    // Jitter keeps each delay within [0.5, 1.0) x the exponential step,
    // and the cap holds for arbitrarily late attempts.
    EXPECT_GE(delay, 0.0);
    EXPECT_LT(delay, 2.0);
  }
  EXPECT_GE(backoff_delay_s(7, 3, 9), 0.5 * 2.0 * 0.5);
}

/// What run_worker() did with one request stream.
struct WorkerRun {
  int rc = -1;
  std::vector<std::string> lines;
  /// The request side's loss_detail() when the loop ended.
  std::string loss;
};

/// Runs the worker loop in-process over two pipes, the way `mfdft_jobd
/// --worker` runs on its stdin and stdout: `input` is the whole request
/// stream, written raw.
WorkerRun run_worker_over_pipes(const std::string& input) {
  int requests[2] = {-1, -1};
  int results[2] = {-1, -1};
  EXPECT_EQ(::pipe(requests), 0);
  EXPECT_EQ(::pipe(results), 0);
  // The requests fit the pipe buffer, so they go in before the loop runs.
  EXPECT_EQ(::write(requests[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(requests[1]);
  net::FramedConnection request_end(requests[0]);
  net::FramedConnection result_end(results[1]);
  net::FramedConnection reader(results[0]);
  const FaultInjectPlan no_faults;
  WorkerRun run;
  run.rc = run_worker(request_end, result_end, &no_faults);
  run.loss = request_end.loss_detail();
  result_end.close();
  std::string line;
  while (reader.read_line(&line) == net::FramedConnection::ReadStatus::kLine) {
    run.lines.push_back(line);
  }
  EXPECT_EQ(reader.partial_bytes(), 0u);
  return run;
}

TEST(SupervisorTest, RunWorkerSpeaksTheEnvelopeProtocol) {
  // Drive the worker loop in-process: two envelopes in, two result lines
  // out, each answering its request's job index.
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.id = "t";
  spec.chip = "figure4_chip";
  Json first = Json::object();
  first.set("job", Json(static_cast<std::int64_t>(5)));
  first.set("attempt", Json(static_cast<std::int64_t>(0)));
  first.set("spec", spec.to_json());
  Json second = Json::object();
  second.set("job", Json(static_cast<std::int64_t>(2)));
  second.set("spec", spec.to_json());

  const WorkerRun run =
      run_worker_over_pipes(first.dump() + "\n" + second.dump() + "\n");
  EXPECT_EQ(run.rc, 0);
  ASSERT_EQ(run.lines.size(), 2u);
  const Json reply1 = Json::parse(run.lines[0]);
  EXPECT_EQ(reply1.at("index").as_int(), 5);
  EXPECT_EQ(reply1.at("status").at("outcome").as_string(), "ok");
  EXPECT_EQ(Json::parse(run.lines[1]).at("index").as_int(), 2);
}

TEST(SupervisorTest, RunWorkerAnswersMalformedEnvelopesInLockstep) {
  // A garbage request still yields exactly one reply line; the protocol
  // never skews and the driving process sees a typed error, not a hang.
  const WorkerRun run = run_worker_over_pipes("{\"job\":1}\n");
  EXPECT_EQ(run.rc, 0);
  ASSERT_EQ(run.lines.size(), 1u);
  const Json reply = Json::parse(run.lines[0]);
  EXPECT_EQ(reply.at("index").as_int(), 1);
  EXPECT_EQ(reply.at("status").at("outcome").as_string(), "internal_error");
  EXPECT_EQ(reply.at("status").at("stage").as_string(), "worker_protocol");
}

TEST(SupervisorTest, RunWorkerReportsATornLastRequest) {
  // A request cut off mid-line (its supervisor died writing it) is never
  // read as a whole one: the loop answers the complete lines, then ends
  // with 1 and says what it discarded.
  const WorkerRun run =
      run_worker_over_pipes("{\"job\":1}\n{\"job\":2,\"spec\":{");
  EXPECT_EQ(run.rc, 1);
  ASSERT_EQ(run.lines.size(), 1u);
  EXPECT_EQ(Json::parse(run.lines[0]).at("index").as_int(), 1);
  EXPECT_NE(run.loss.find("torn line"), std::string::npos) << run.loss;
}

TEST(SupervisorTest, RunJobdWithWorkersMatchesThreadsByteForByte) {
  // The full driver path: run_jobd with workers > 0 spawns subprocesses
  // and must emit the very bytes the in-process path emits.
  std::string input;
  for (const JobSpec& spec : nine_jobs()) {
    input += spec.to_json().dump() + "\n";
  }

  JobdOptions threads;
  threads.threads = 4;
  std::istringstream in_threads(input);
  std::ostringstream out_threads;
  const JobdReport report_threads = run_jobd(in_threads, out_threads, threads);
  EXPECT_EQ(report_threads.metrics.jobs_ok, 9);

  JobdOptions workers;
  workers.workers = 2;
  workers.worker_command = {MFDFT_JOBD_BIN, "--worker"};
  std::istringstream in_workers(input);
  std::ostringstream out_workers;
  const JobdReport report_workers = run_jobd(in_workers, out_workers, workers);
  EXPECT_EQ(report_workers.metrics.jobs_ok, 9);
  EXPECT_EQ(report_workers.metrics.workers_lost, 0);

  EXPECT_EQ(out_threads.str(), out_workers.str());
}

TEST(SupervisorTest, OutOfRangeNumberIsAParseErrorAndTheBatchRuns) {
  // strtod reads 1e999 as infinity, and no spec holding one can be
  // re-serialized for a worker. The line must fail its parse in its own
  // slot, and the rest of the batch run on the worker.
  const std::string input =
      "{\"kind\":\"testgen\",\"chip\":\"IVD_chip\",\"deadline_s\":1e999}\n" +
      nine_jobs()[0].to_json().dump() + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out, worker_options(1));

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const Json first = Json::parse(line);
  EXPECT_EQ(first.at("status").at("stage").as_string(), "parse");
  EXPECT_NE(first.at("status").at("message").as_string().find(
                "line 1: Json::parse(): number out of range"),
            std::string::npos)
      << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("status").at("outcome").as_string(), "ok");
  EXPECT_FALSE(std::getline(lines, line));
  EXPECT_EQ(report.metrics.parse_errors, 1);
  EXPECT_EQ(report.metrics.jobs_ok, 1);
  EXPECT_EQ(report.metrics.jobs_remote, 1);
}

TEST(SupervisorTest, WorkersShareFitnessCacheThroughDiskTier) {
  // Worker subprocesses share evaluations through the persistent cache
  // tier: the batch leaves segment files behind, a rerun starts warm, and
  // the output bytes never change — cache off, cold, or warm.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("mfdft_supervisor_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  spec.id = "cd";
  spec.chip = "IVD_chip";
  spec.assay = "IVD";
  spec.outer_iterations = 1;
  spec.outer_particles = 2;
  spec.config_pool_size = 1;
  std::string input;
  input += spec.to_json().dump() + "\n";
  spec.id = "cd2";
  input += spec.to_json().dump() + "\n";

  const auto run = [&](const std::string& cache_dir) {
    JobdOptions options;
    options.workers = 2;
    options.worker_command = {MFDFT_JOBD_BIN, "--worker"};
    options.cache_dir = cache_dir;
    std::istringstream in(input);
    std::ostringstream out;
    const JobdReport report = run_jobd(in, out, options);
    EXPECT_EQ(report.metrics.jobs_ok, 2);
    return out.str();
  };

  const std::string without_cache = run("");
  const std::string cold = run(dir.string());

  // The workers persisted what they computed...
  int segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments += entry.path().extension() == ".mfc" ? 1 : 0;
  }
  EXPECT_GT(segments, 0);

  // ...and a restarted batch over the warm tier emits identical bytes.
  const std::string warm = run(dir.string());
  EXPECT_EQ(without_cache, cold);
  EXPECT_EQ(cold, warm);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Sends `sig` to every thread of this process but the calling one; returns
/// how many it signalled.
int signal_every_other_thread(int sig) {
  const long self = ::syscall(SYS_gettid);
  int signalled = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const long tid = std::stol(entry.path().filename().string());
    if (tid != self && ::syscall(SYS_tgkill, ::getpid(), tid, sig) == 0) {
      ++signalled;
    }
  }
  return signalled;
}

TEST(SupervisorTest, SignalStormDuringBatchStaysByteIdentical) {
  // A signal landing in a wait of the batch — the executors' poll() on a
  // worker's output, their pipe reads and writes, the caller's wait for
  // the results — must never read as "nothing readable" or a stall, which
  // a storm could turn into a stalled or misjudged batch. With a handler
  // installed *without* SA_RESTART (so every syscall really does take the
  // EINTR), a burst of signals at every thread during the run must change
  // nothing.
  struct sigaction storm_action {};
  storm_action.sa_handler = [](int) {};
  sigemptyset(&storm_action.sa_mask);
  storm_action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &storm_action, &previous), 0);

  const std::vector<JobSpec> specs = nine_jobs();
  std::atomic<bool> storming{true};
  std::atomic<int> widest{0};
  std::thread storm([&storming, &widest] {
    while (storming.load()) {
      widest = std::max(widest.load(), signal_every_other_thread(SIGUSR1));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  // A batch this small can finish before a loaded host schedules the storm
  // thread at all. The first result therefore holds its executor (bounded)
  // until a burst has reached the caller and both executors, which are all
  // alive until the last result is in.
  std::once_flag held;
  const auto hold_first = [&held, &widest](const JobResult&) {
    std::call_once(held, [&widest] {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (widest.load() < 3 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  };
  ServiceMetrics metrics;
  const std::vector<JobResult> results =
      run(specs, worker_options(2), &metrics, hold_first);
  storming.store(false);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  // The storm reached the caller and both executors.
  EXPECT_GE(widest.load(), 3);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(result_lines(results), dispatcher_baseline(specs));
  EXPECT_EQ(metrics.jobs_ok, 9);
  EXPECT_EQ(metrics.jobs_retried, 0);
  EXPECT_EQ(metrics.jobs_quarantined, 0);
  EXPECT_EQ(metrics.workers_lost, 0);
}

}  // namespace
}  // namespace mfd::svc
