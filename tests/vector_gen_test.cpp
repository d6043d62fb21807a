#include <gtest/gtest.h>

#include "arch/chips.hpp"
#include "core/codesign.hpp"
#include "sim/pressure.hpp"
#include "testgen/path_ilp.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::testgen {
namespace {

using arch::Biochip;

void check_suite(const Biochip& chip, const TestSuite& suite) {
  // Every vector's expected reading matches the fault-free simulation, and
  // the suite achieves full coverage (re-verified independently).
  const sim::PressureSimulator simulator(chip);
  for (const sim::TestVector& v : suite.vectors) {
    EXPECT_TRUE(simulator.vector_consistent(v));
    EXPECT_EQ(v.expected_pressure, v.kind == sim::VectorKind::kPath);
  }
  const sim::CoverageReport recheck =
      sim::evaluate_coverage(chip, suite.vectors);
  EXPECT_TRUE(recheck.complete());
  EXPECT_EQ(suite.path_vector_count() + suite.cut_vector_count(),
            suite.size());
}

class MultiportSuiteTest
    : public ::testing::TestWithParam<Biochip (*)()> {};

TEST_P(MultiportSuiteTest, FullCoverageOnOriginalChip) {
  const Biochip chip = GetParam()();
  const auto suite = generate_test_suite_multiport(chip);
  ASSERT_TRUE(suite.has_value()) << chip.name();
  check_suite(chip, *suite);
}

INSTANTIATE_TEST_SUITE_P(
    PaperChips, MultiportSuiteTest,
    ::testing::Values(&arch::make_figure4_chip, &arch::make_ivd_chip,
                      &arch::make_ra30_chip, &arch::make_mrna_chip),
    [](const ::testing::TestParamInfo<Biochip (*)()>& info) {
      return info.param().name();
    });

TEST(SingleMeterSuiteTest, AugmentedChipWithDedicatedControls) {
  const Biochip chip = arch::make_ivd_chip();
  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const Biochip augmented =
      core::with_dedicated_controls(apply_plan(chip, plan));

  VectorGenOptions options;
  options.plan = &plan;
  const auto suite =
      generate_test_suite(augmented, plan.source, plan.meter, options);
  ASSERT_TRUE(suite.has_value());
  check_suite(augmented, *suite);
  // The ILP plan paths should appear as path vectors.
  EXPECT_GE(suite->path_vector_count(), 1);
  EXPECT_GE(suite->cut_vector_count(), 1);
}

TEST(SingleMeterSuiteTest, WorksWithoutPlanSeed) {
  const Biochip chip = arch::make_ivd_chip();
  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const Biochip augmented =
      core::with_dedicated_controls(apply_plan(chip, plan));
  const auto suite =
      generate_test_suite(augmented, plan.source, plan.meter);
  ASSERT_TRUE(suite.has_value());
  check_suite(augmented, *suite);
}

TEST(SingleMeterSuiteTest, RejectsEqualPorts) {
  const Biochip chip = arch::make_ivd_chip();
  EXPECT_THROW(generate_test_suite(chip, 0, 0), Error);
}

TEST(SingleMeterSuiteTest, DeterministicForFixedSeed) {
  const Biochip chip = arch::make_figure4_chip();
  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const Biochip augmented =
      core::with_dedicated_controls(apply_plan(chip, plan));
  VectorGenOptions options;
  options.seed = 5;
  const auto a = generate_test_suite(augmented, plan.source, plan.meter,
                                     options);
  const auto b = generate_test_suite(augmented, plan.source, plan.meter,
                                     options);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->size(), b->size());
}

TEST(SharingValidationTest, ValidSharingStillFullyTestable) {
  const Biochip chip = arch::make_ivd_chip();
  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  Biochip augmented = apply_plan(chip, plan);

  // Spread the DFT valves over distinct original controls; this is usually
  // benign and should stay testable.
  int partner = 0;
  for (arch::ValveId v = 0; v < augmented.valve_count(); ++v) {
    if (augmented.valve(v).is_dft) {
      augmented.share_control(v, partner);
      partner += 3;
    }
  }
  VectorGenOptions options;
  options.plan = &plan;
  const auto suite =
      generate_test_suite(augmented, plan.source, plan.meter, options);
  ASSERT_TRUE(suite.has_value());
  check_suite(augmented, *suite);
}

TEST(SharingValidationTest, SuiteIsLargerUnderSingleMeterThanMultiport) {
  // Figure 8's qualitative claim on at least one chip: the DFT architecture
  // needs at least as many vectors as the original multi-port test.
  const Biochip chip = arch::make_ra30_chip();
  const auto multiport = generate_test_suite_multiport(chip);
  ASSERT_TRUE(multiport.has_value());

  const PathPlan plan = plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const Biochip augmented =
      core::with_dedicated_controls(apply_plan(chip, plan));
  VectorGenOptions options;
  options.plan = &plan;
  const auto single =
      generate_test_suite(augmented, plan.source, plan.meter, options);
  ASSERT_TRUE(single.has_value());
  EXPECT_GE(single->size(), multiport->size());
}

TEST(SharingValidationTest, PathologicalSharingDetectedAsInvalid) {
  // Build a deliberately bad scheme: a chip whose only two routes between
  // the test ports are tied to the same control, so no cut can distinguish
  // their valves' stuck-at-1 faults.
  Biochip chip(arch::ConnectionGrid(3, 3), "twin");
  chip.add_port(0, 1, "L");
  chip.add_port(2, 1, "R");
  chip.add_channel(0, 1, 1, 1);
  chip.add_channel(1, 1, 2, 1);
  // Parallel route above.
  chip.add_channel(0, 1, 0, 0);
  chip.add_channel(0, 0, 1, 0);
  chip.add_channel(1, 0, 2, 0);
  chip.add_channel(2, 0, 2, 1);
  // DFT valve glued to the lower-route valve 0: forced open/closed with it.
  const graph::EdgeId free_edge = chip.grid().edge_between(1, 1, 1, 0);
  const arch::ValveId dft = chip.add_dft_channel(free_edge);
  chip.share_control(dft, 0);

  const auto suite = generate_test_suite(chip, 0, 1);
  // The generator either finds a valid set (sharing turned out testable) or
  // reports nullopt; both are legal, but the result must be self-consistent.
  if (suite.has_value()) check_suite(chip, *suite);
}

TEST(SuiteCountersTest, PathAndCutSplit) {
  TestSuite suite;
  sim::TestVector path;
  path.kind = sim::VectorKind::kPath;
  sim::TestVector cut;
  cut.kind = sim::VectorKind::kCut;
  suite.vectors = {path, cut, cut};
  EXPECT_EQ(suite.path_vector_count(), 1);
  EXPECT_EQ(suite.cut_vector_count(), 2);
  EXPECT_EQ(suite.size(), 3);
}

}  // namespace
}  // namespace mfd::testgen
