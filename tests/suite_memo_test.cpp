// The per-batch suite memo (svc/run_job.hpp SuiteMemo): the testgen,
// coverage and diagnosis jobs of one chip and seed generate its multiport
// test suite once per batch, with every result byte equal to jobs that
// each generated their own. The scale preset through the real tools is
// SuiteMemoTest.ScalePreset... in chaos_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "arch/serialize.hpp"
#include "common/run_control.hpp"
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

TEST(SuiteMemoTest, AMembersThreeJobsGenerateOneSuite) {
  const std::vector<JobSpec> specs = member_jobs(fpva_text(8), 2024);
  ServiceMetrics metrics;
  const std::vector<JobResult> batch = run_in_batch(specs, 1, &metrics);
  EXPECT_EQ(metrics.suites_reused, 2);
  EXPECT_NE(metrics.summary().find("2 suites reused"), std::string::npos)
      << metrics.summary();

  // The same three jobs through one memo: the first stores the suite, the
  // second takes it, the third takes it and leaves the memo empty. Each
  // line equals the batch's and a job's that generated its own.
  SuiteMemo memo;
  for (const JobSpec& spec : specs) memo.expect(spec);
  EXPECT_EQ(memo.size(), 0u);
  const std::size_t stored_after[] = {1, 1, 0};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    const JobResult alone = run_job(specs[i]);
    ASSERT_TRUE(alone.status.ok()) << alone.status.to_string();
    EXPECT_EQ(line_of(batch[i], index), line_of(alone, index)) << i;
    const JobResult shared =
        run_job(specs[i], nullptr, nullptr, nullptr, &memo);
    EXPECT_EQ(line_of(shared, index), line_of(alone, index)) << i;
    EXPECT_EQ(memo.size(), stored_after[i]) << i;
  }
  EXPECT_EQ(memo.hits(), 2);
}

TEST(SuiteMemoTest, TwoSeedsOverOneChipShareNothing) {
  const std::string chip = fpva_text(8);
  std::vector<JobSpec> specs = member_jobs(chip, 1);
  specs[1].seed = 2;
  specs[2].seed = 3;
  ServiceMetrics metrics;
  const std::vector<JobResult> batch = run_in_batch(specs, 1, &metrics);
  EXPECT_EQ(metrics.suites_reused, 0);
  EXPECT_EQ(metrics.summary().find("suites reused"), std::string::npos);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    EXPECT_EQ(line_of(batch[i], index), line_of(run_job(specs[i]), index));
  }
  EXPECT_NE(suite_key(chip_key(specs[0]), 1),
            suite_key(chip_key(specs[0]), 2));
}

TEST(SuiteMemoTest, AStoppedGenerationStoresNothing) {
  // A deadline far below this array's generation time stops the first job
  // inside generation. It stores nothing: the next job of the key
  // generates the full suite, stores it, and the last one takes it.
  const std::vector<JobSpec> specs = member_jobs(fpva_text(24), 7);
  SuiteMemo memo;
  for (const JobSpec& spec : specs) memo.expect(spec);

  RunControl deadline;
  deadline.set_timeout(0.02);
  const JobResult stopped =
      run_job(specs[0], &deadline, nullptr, nullptr, &memo);
  EXPECT_EQ(stopped.status.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(stopped.status.stage, "testgen") << stopped.status.to_string();
  EXPECT_EQ(memo.size(), 0u);

  for (std::size_t i = 1; i < specs.size(); ++i) {
    const int index = static_cast<int>(i);
    const JobResult alone = run_job(specs[i]);
    ASSERT_TRUE(alone.status.ok()) << alone.status.to_string();
    const JobResult shared =
        run_job(specs[i], nullptr, nullptr, nullptr, &memo);
    EXPECT_EQ(line_of(shared, index), line_of(alone, index)) << i;
  }
  EXPECT_EQ(memo.hits(), 1);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(SuiteMemoTest, AKeyCountedOnceIsNeverStored) {
  const std::vector<JobSpec> specs = member_jobs(fpva_text(6), 5);
  SuiteMemo memo;
  memo.expect(specs[0]);
  JobSpec codesign = specs[0];  // generates no multiport suite: not counted
  codesign.kind = JobKind::kCodesign;
  codesign.assay = "IVD";
  memo.expect(codesign);
  ASSERT_TRUE(run_job(specs[0], nullptr, nullptr, nullptr, &memo).status.ok());
  EXPECT_EQ(memo.size(), 0u);
  // Past its count, a job of the key neither takes nor stores.
  ASSERT_TRUE(run_job(specs[1], nullptr, nullptr, nullptr, &memo).status.ok());
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.hits(), 0);
}

}  // namespace
}  // namespace mfd::svc
