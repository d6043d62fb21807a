// The claim-counted JobContext (svc/run_job.hpp): the jobs an execution
// core admits together share their parsed chip and their multiport test
// suite, with every result byte equal to jobs that each built their own,
// and a context holds nothing once its claims are dropped. The scale
// preset through the real tools is SuiteMemoTest.ScalePreset... in
// chaos_test.cpp.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "arch/serialize.hpp"
#include "common/run_control.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"
#include "svc/run_job.hpp"
#include "workload/fpva.hpp"

namespace mfd::svc {
namespace {

/// A campaign member's three jobs: one chip, one seed.
std::vector<JobSpec> member_jobs(const std::string& chip_text,
                                 std::uint64_t seed) {
  std::vector<JobSpec> specs;
  for (const JobKind kind :
       {JobKind::kTestgen, JobKind::kCoverage, JobKind::kDiagnosis}) {
    JobSpec spec;
    spec.kind = kind;
    spec.id = to_string(kind);
    spec.chip_text = chip_text;
    spec.seed = seed;
    spec.universe = "stuck_at_leakage";
    specs.push_back(spec);
  }
  return specs;
}

std::string fpva_text(int side) {
  workload::FpvaSpec spec;
  spec.rows = spec.cols = side;
  return arch::chip_to_string(workload::make_fpva_chip(spec));
}

/// A result's line, as it sits in slot `index` of a results.jsonl.
std::string line_of(JobResult result, int index) {
  result.index = index;
  return result.to_json().dump();
}

/// The batch over every spec, in-process on `threads` executors.
std::vector<JobResult> run_in_batch(const std::vector<JobSpec>& specs,
                                    int threads, ServiceMetrics* metrics) {
  std::vector<int> slots(specs.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<JobResult> results(specs.size());
  JobdOptions options;
  options.threads = threads;
  *metrics = run_batch(specs, slots, results, options);
  return results;
}

TEST(JobContextTest, AMembersThreeClaimedJobsShareOneSuite) {
  const std::vector<JobSpec> specs = member_jobs(fpva_text(8), 2024);
  ServiceMetrics metrics;
  const std::vector<JobResult> batch = run_in_batch(specs, 1, &metrics);
  EXPECT_EQ(metrics.suites_reused, 2);
  EXPECT_NE(metrics.summary().find("2 suites reused"), std::string::npos)
      << metrics.summary();

  // The same three jobs claimed in one context hold one chip and one
  // suite: the first job generates it, the other two take it. Each line
  // equals the batch's and a job's that generated its own.
  JobContext context;
  for (const JobSpec& spec : specs) context.claim(spec);
  EXPECT_EQ(context.size(), 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    const JobResult alone = run_job(specs[i]);
    ASSERT_TRUE(alone.status.ok()) << alone.status.to_string();
    EXPECT_EQ(line_of(batch[i], index), line_of(alone, index)) << i;
    const JobResult shared = run_job(specs[i], nullptr, nullptr, &context);
    EXPECT_EQ(line_of(shared, index), line_of(alone, index)) << i;
  }
  EXPECT_EQ(context.suites_reused(), 2);
  for (const JobSpec& spec : specs) context.release(spec);
  EXPECT_EQ(context.size(), 0u);
}

TEST(JobContextTest, TwoSeedsShareTheChipButNotASuite) {
  std::vector<JobSpec> specs = member_jobs(fpva_text(8), 1);
  specs[1].seed = 2;
  specs[2].seed = 3;
  ServiceMetrics metrics;
  const std::vector<JobResult> batch = run_in_batch(specs, 1, &metrics);
  EXPECT_EQ(metrics.suites_reused, 0);
  EXPECT_EQ(metrics.summary().find("suites reused"), std::string::npos);

  JobContext context;
  for (const JobSpec& spec : specs) context.claim(spec);
  EXPECT_EQ(context.size(), 4u);  // one chip, a suite per seed
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    EXPECT_EQ(line_of(run_job(specs[i], nullptr, nullptr, &context), index),
              line_of(batch[i], index));
    EXPECT_EQ(line_of(run_job(specs[i]), index), line_of(batch[i], index));
  }
  EXPECT_EQ(context.suites_reused(), 0);
  context.release(specs[0]);
  EXPECT_EQ(context.size(), 3u);  // the other seeds still claim the chip
  context.release(specs[1]);
  context.release(specs[2]);
  EXPECT_EQ(context.size(), 0u);
}

TEST(JobContextTest, AStoppedGenerationStoresNothing) {
  // A deadline far below this array's generation time stops the first job
  // inside generation. It stores nothing: the next job of the key
  // generates the full suite and stores it, and the last one takes it.
  const std::vector<JobSpec> specs = member_jobs(fpva_text(24), 7);
  JobContext context;
  for (const JobSpec& spec : specs) context.claim(spec);

  RunControl deadline;
  deadline.set_timeout(0.02);
  const JobResult stopped = run_job(specs[0], &deadline, nullptr, &context);
  EXPECT_EQ(stopped.status.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(stopped.status.stage, "testgen") << stopped.status.to_string();

  for (std::size_t i = 1; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    const JobResult alone = run_job(specs[i]);
    ASSERT_TRUE(alone.status.ok()) << alone.status.to_string();
    const JobResult shared = run_job(specs[i], nullptr, nullptr, &context);
    EXPECT_EQ(line_of(shared, index), line_of(alone, index)) << i;
  }
  EXPECT_EQ(context.suites_reused(), 1);
  for (const JobSpec& spec : specs) context.release(spec);
  EXPECT_EQ(context.size(), 0u);
}

TEST(JobContextTest, AnUnclaimedJobStoresNothing) {
  const std::vector<JobSpec> specs = member_jobs(fpva_text(6), 5);
  JobContext context;
  for (const JobSpec& spec : specs) {
    ASSERT_TRUE(run_job(spec, nullptr, nullptr, &context).status.ok());
    EXPECT_EQ(context.size(), 0u);
  }
  EXPECT_EQ(context.suites_reused(), 0);

  // A codesign job over the same chip claims the chip and its assay, not
  // the suite: the testgen jobs still generate their own.
  JobSpec codesign = specs[0];
  codesign.kind = JobKind::kCodesign;
  codesign.assay = "IVD";
  context.claim(codesign);
  EXPECT_EQ(context.size(), 2u);
  ASSERT_TRUE(run_job(specs[0], nullptr, nullptr, &context).status.ok());
  ASSERT_TRUE(run_job(specs[0], nullptr, nullptr, &context).status.ok());
  EXPECT_EQ(context.suites_reused(), 0);
  context.release(codesign);
  EXPECT_EQ(context.size(), 0u);
}

/// Counts delivered results; wait() returns once `total` arrived.
class CountingSink : public ResultSink {
 public:
  explicit CountingSink(int total) : left_(total) {}

  void deliver(JobResult) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--left_ == 0) done_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return left_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  int left_;
};

TEST(JobContextTest, ClaimsBalanceWhileExecutorsFinishJobsDuringSubmission) {
  // Executors already wait, so they run and release jobs while submit()
  // still claims more. Every task has keys of its own, and every other one
  // fails validation at once: a claim taken after its task could be popped
  // would come after that task's release and leave its entry behind.
  constexpr int kTasks = 600;
  const std::string chip = fpva_text(4);
  std::vector<JobSpec> specs;
  for (int i = 0; i < kTasks; ++i) {
    JobSpec& spec = specs.emplace_back();
    spec.id = std::to_string(i);
    spec.chip_text = chip + "# " + std::to_string(i) + "\n";
    spec.seed = static_cast<std::uint64_t>(i);
    if (i % 2 == 1) spec.threads = -1;
  }
  ExecutionCore::Policy policy;
  policy.capacity = kTasks;
  ExecutionCore core(policy, nullptr);
  core.add_in_process(4);
  // The race is rare in any one round; a leaked entry stays.
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const auto sink = std::make_shared<CountingSink>(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      Task task;
      task.spec = std::shared_ptr<const JobSpec>(
          std::shared_ptr<void>(), &specs[static_cast<std::size_t>(i)]);
      task.sink = sink;
      task.index = i;
      ASSERT_TRUE(core.submit(task));
    }
    sink->wait();
    ASSERT_EQ(core.context().size(), 0u) << "round " << round;
  }
  const ServiceMetrics metrics = core.metrics();
  EXPECT_EQ(metrics.jobs_ok, kRounds * kTasks / 2);
  EXPECT_EQ(metrics.jobs_failed, kRounds * kTasks / 2);
  EXPECT_TRUE(core.close().empty());
}

}  // namespace
}  // namespace mfd::svc
