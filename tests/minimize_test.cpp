#include <gtest/gtest.h>

#include "arch/chips.hpp"
#include "core/codesign.hpp"
#include "testgen/minimize.hpp"
#include "testgen/path_ilp.hpp"
#include "workload/fpva.hpp"

namespace mfd::testgen {
namespace {

TestSuite suite_for(const arch::Biochip& chip) {
  const auto suite = generate_test_suite_multiport(chip);
  EXPECT_TRUE(suite.has_value());
  return *suite;
}

TEST(MinimizeTest, KeepsFullCoverage) {
  const auto minimize = [](const arch::Biochip& chip) {
    const TestSuite suite = suite_for(chip);
    MinimizeStats stats;
    const TestSuite minimized =
        minimize_test_suite(chip, suite, MinimizeOptions{}, &stats);
    EXPECT_TRUE(minimized.coverage.complete()) << chip.name();
    EXPECT_EQ(stats.vectors_before, suite.size());
    EXPECT_EQ(stats.vectors_after, minimized.size());
    EXPECT_LE(minimized.size(), suite.size());
    return stats;
  };
  (void)minimize(arch::make_ivd_chip());
  // The 6x6 FPVA (seed 2024, 4 ports, 2 mixers, 1 detector): its 42-vector
  // suite covers all 120 stuck-at faults, and the exact set cover keeps 36.
  workload::FpvaSpec fpva;
  fpva.rows = fpva.cols = 6;
  fpva.ports = 4;
  fpva.mixers = 2;
  fpva.detectors = 1;
  fpva.seed = 2024;
  const MinimizeStats stats = minimize(workload::make_fpva_chip(fpva));
  EXPECT_EQ(stats.vectors_before, 42);
  EXPECT_TRUE(stats.exact);
  EXPECT_EQ(stats.vectors_after, 36);
}

TEST(MinimizeTest, ExactWhenSmall) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const TestSuite suite = suite_for(chip);
  MinimizeStats stats;
  const TestSuite minimized =
      minimize_test_suite(chip, suite, MinimizeOptions{}, &stats);
  EXPECT_TRUE(stats.exact);
  EXPECT_TRUE(minimized.coverage.complete());
}

TEST(MinimizeTest, GreedyFallbackAlsoCovers) {
  const arch::Biochip chip = arch::make_ra30_chip();
  const TestSuite suite = suite_for(chip);
  MinimizeOptions options;
  options.exact_threshold = 0;  // force greedy
  MinimizeStats stats;
  const TestSuite minimized =
      minimize_test_suite(chip, suite, options, &stats);
  EXPECT_FALSE(stats.exact);
  EXPECT_TRUE(minimized.coverage.complete());
  EXPECT_LE(minimized.size(), suite.size());
}

TEST(MinimizeTest, ExactNeverWorseThanGreedy) {
  for (auto maker : {&arch::make_figure4_chip, &arch::make_ivd_chip}) {
    const arch::Biochip chip = maker();
    const TestSuite suite = suite_for(chip);
    MinimizeOptions greedy_only;
    greedy_only.exact_threshold = 0;
    const TestSuite greedy = minimize_test_suite(chip, suite, greedy_only);
    MinimizeStats stats;
    const TestSuite exact =
        minimize_test_suite(chip, suite, MinimizeOptions{}, &stats);
    if (stats.exact) {
      EXPECT_LE(exact.size(), greedy.size()) << chip.name();
    }
  }
}

TEST(MinimizeTest, IdempotentOnMinimizedSuite) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const TestSuite suite = suite_for(chip);
  const TestSuite once = minimize_test_suite(chip, suite);
  const TestSuite twice = minimize_test_suite(chip, once);
  EXPECT_EQ(twice.size(), once.size());
}

TEST(MinimizeTest, RejectsIncompleteSuite) {
  const arch::Biochip chip = arch::make_ivd_chip();
  TestSuite incomplete;  // empty: coverage not complete
  incomplete.coverage = sim::evaluate_coverage(chip, incomplete.vectors);
  EXPECT_THROW(minimize_test_suite(chip, incomplete), Error);
}

TEST(MinimizeTest, WorksOnDftAugmentedChip) {
  const arch::Biochip chip = arch::make_ivd_chip();
  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const arch::Biochip augmented =
      core::with_dedicated_controls(apply_plan(chip, plan));
  VectorGenOptions options;
  options.plan = &plan;
  const auto suite =
      generate_test_suite(augmented, plan.source, plan.meter, options);
  ASSERT_TRUE(suite.has_value());
  const TestSuite minimized = minimize_test_suite(augmented, *suite);
  EXPECT_TRUE(minimized.coverage.complete());
  EXPECT_LE(minimized.size(), suite->size());
}

}  // namespace
}  // namespace mfd::testgen
