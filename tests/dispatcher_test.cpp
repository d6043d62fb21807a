// In-process batch execution on the job core (run_batch with threads):
// input-order results, thread-count-independent serialized output,
// cascading cancellation through the batch control, per-job deadlines,
// metrics aggregation.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/run_control.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"

namespace mfd::svc {
namespace {

JobSpec spec_of(JobKind kind, const std::string& id, const std::string& chip) {
  JobSpec spec;
  spec.kind = kind;
  spec.id = id;
  spec.chip = chip;
  return spec;
}

std::vector<JobSpec> small_batch() {
  return {
      spec_of(JobKind::kTestgen, "t", "figure4_chip"),
      spec_of(JobKind::kCoverage, "c", "figure4_chip"),
      spec_of(JobKind::kDiagnosis, "d", "figure4_chip"),
  };
}

/// Runs every spec of the batch; `metrics` (optional) receives its metrics.
std::vector<JobResult> run(const std::vector<JobSpec>& specs,
                           const JobdOptions& options = {},
                           ServiceMetrics* metrics = nullptr) {
  std::vector<int> slots(specs.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<JobResult> results(specs.size());
  const ServiceMetrics m = run_batch(specs, slots, results, options);
  if (metrics != nullptr) *metrics = m;
  return results;
}

TEST(DispatcherOptionsTest, ValidateListsEveryBadField) {
  JobdOptions options;
  options.threads = -1;
  options.stall_timeout_s = -1.0;
  options.deadline_s = -1.0;
  options.workers = kMaxThreads + 1;  // rejected before any worker spawns
  options.cache_mb = -1;
  const Status status = options.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("threads"), std::string::npos);
  EXPECT_NE(status.message.find("stall_timeout_s"), std::string::npos);
  EXPECT_NE(status.message.find("deadline_s"), std::string::npos);
  EXPECT_NE(status.message.find("workers"), std::string::npos);
  EXPECT_NE(status.message.find("cache_mb"), std::string::npos);
  EXPECT_THROW(run(small_batch(), options), Error);
}

TEST(DispatcherTest, ResultsComeBackInInputOrder) {
  const std::vector<JobSpec> specs = small_batch();
  const std::vector<JobResult> results = run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, static_cast<int>(i));
    EXPECT_EQ(results[i].id, specs[i].id);
    EXPECT_EQ(results[i].kind, specs[i].kind);
    EXPECT_TRUE(results[i].status.ok()) << results[i].status.to_string();
  }
  EXPECT_GT(results[0].vectors, 0);
  EXPECT_GT(results[1].detected_faults, 0);
  EXPECT_GT(results[2].distinct_signatures, 0);
}

TEST(DispatcherTest, SerializedResultsIdenticalForEveryThreadCount) {
  const std::vector<JobSpec> specs = small_batch();
  JobdOptions serial;
  serial.threads = 1;
  std::vector<JobResult> base = run(specs, serial);
  for (const int threads : {2, 4}) {
    JobdOptions options;
    options.threads = threads;
    const std::vector<JobResult> results = run(specs, options);
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].to_json().dump(), base[i].to_json().dump())
          << "threads=" << threads << " job=" << i;
    }
  }
}

TEST(DispatcherTest, InvalidSpecFailsItsJobWithoutSinkingTheBatch) {
  std::vector<JobSpec> specs = small_batch();
  specs[1].chip = "warp_core";
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, {}, &metrics);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(results[1].status.stage, "job_spec");
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(metrics.jobs_total, 3);
  EXPECT_EQ(metrics.jobs_ok, 2);
  EXPECT_EQ(metrics.jobs_failed, 1);
  EXPECT_EQ(metrics.jobs_stopped, 0);
  EXPECT_EQ(metrics.jobs_admitted, 3);  // a batch is admitted whole
  EXPECT_EQ(metrics.admitted_interactive, 3);
}

TEST(DispatcherTest, PerJobDeadlineStopsOnlyThatJob) {
  std::vector<JobSpec> specs;
  JobSpec slow = spec_of(JobKind::kCodesign, "slow", "IVD_chip");
  slow.assay = "IVD";
  slow.deadline_s = 0.02;  // far below a real codesign run
  specs.push_back(slow);
  specs.push_back(spec_of(JobKind::kTestgen, "quick", "figure4_chip"));
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, {}, &metrics);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.outcome, Outcome::kDeadlineExceeded);
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.to_string();
  EXPECT_EQ(metrics.jobs_stopped, 1);
  EXPECT_EQ(metrics.jobs_ok, 1);
}

TEST(DispatcherTest, CancelAllCascadesToQueuedAndRunningJobs) {
  // One genuinely long codesign job followed by queued work; stop the batch
  // control shortly after the batch starts. The running job unwinds through
  // its RunControl, the queued jobs never run (stage "queue").
  std::vector<JobSpec> specs;
  JobSpec long_job = spec_of(JobKind::kCodesign, "long", "IVD_chip");
  long_job.assay = "IVD";
  long_job.outer_iterations = 1000;
  specs.push_back(long_job);
  specs.push_back(spec_of(JobKind::kTestgen, "q1", "figure4_chip"));
  specs.push_back(spec_of(JobKind::kCoverage, "q2", "figure4_chip"));

  RunControl control;
  JobdOptions options;
  options.threads = 1;  // serial: the queued jobs are strictly behind
  options.control = &control;
  std::vector<JobResult> results;
  ServiceMetrics metrics;
  std::thread runner([&] { results = run(specs, options, &metrics); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  control.request_cancel();
  runner.join();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status.outcome, Outcome::kCancelled);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].status.outcome, Outcome::kCancelled) << i;
    EXPECT_EQ(results[i].status.stage, "queue") << i;
  }
  EXPECT_EQ(metrics.jobs_stopped, 3);
  EXPECT_EQ(metrics.jobs_ok, 0);
}

TEST(DispatcherTest, CancelBeforeRunMarksWholeBatchCancelled) {
  RunControl control;
  control.request_cancel();
  JobdOptions options;
  options.control = &control;
  const std::vector<JobResult> results = run(small_batch(), options);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& result : results) {
    EXPECT_EQ(result.status.outcome, Outcome::kCancelled);
    EXPECT_EQ(result.status.stage, "queue");
  }
}

TEST(DispatcherTest, MetricsAggregateQueueWaitAndStats) {
  std::vector<JobSpec> specs;
  JobSpec codesign = spec_of(JobKind::kCodesign, "cd", "IVD_chip");
  codesign.assay = "IVD";
  codesign.outer_iterations = 1;
  codesign.outer_particles = 1;
  codesign.config_pool_size = 1;
  specs.push_back(codesign);
  specs.push_back(spec_of(JobKind::kTestgen, "t", "figure4_chip"));
  ServiceMetrics metrics;
  const std::vector<JobResult> results = run(specs, {}, &metrics);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
  EXPECT_EQ(metrics.jobs_total, 2);
  EXPECT_GT(metrics.wall_seconds, 0.0);
  EXPECT_GE(metrics.queue_wait_seconds_max, 0.0);
  EXPECT_GE(metrics.queue_wait_seconds_total, metrics.queue_wait_seconds_max);
  // The codesign job contributed evaluation counters; wall-time members of
  // the serialized stats were zeroed for determinism.
  EXPECT_GT(metrics.stats.evaluations, 0);
  EXPECT_EQ(results[0].stats.eval_seconds, 0.0);
}

}  // namespace
}  // namespace mfd::svc
