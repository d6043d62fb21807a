// End-to-end integration: the full DFT pipeline over every paper chip, plus
// serialization of the final artifact.
#include <gtest/gtest.h>

#include <sstream>

#include "arch/chips.hpp"
#include "arch/serialize.hpp"
#include "core/codesign.hpp"
#include "sim/pressure.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd {
namespace {

class PipelineTest : public ::testing::TestWithParam<arch::Biochip (*)()> {};

// Plan -> augment -> dedicated controls -> generate vectors -> verify
// coverage and single-source single-meter property.
TEST_P(PipelineTest, SingleSourceSingleMeterAchieved) {
  const arch::Biochip chip = GetParam()();
  const testgen::PathPlan plan = testgen::plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible) << chip.name();

  const arch::Biochip augmented =
      core::with_dedicated_controls(testgen::apply_plan(chip, plan));
  testgen::VectorGenOptions options;
  options.plan = &plan;
  const auto suite = testgen::generate_test_suite(augmented, plan.source,
                                                  plan.meter, options);
  ASSERT_TRUE(suite.has_value()) << chip.name();
  EXPECT_TRUE(suite->coverage.complete());

  // Single source, single meter: every vector uses the same port pair.
  for (const sim::TestVector& v : suite->vectors) {
    EXPECT_EQ(v.source, plan.source);
    EXPECT_EQ(v.meter, plan.meter);
  }
}

TEST_P(PipelineTest, AugmentedChipSerializationRoundTrip) {
  const arch::Biochip chip = GetParam()();
  const testgen::PathPlan plan = testgen::plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  arch::Biochip augmented = testgen::apply_plan(chip, plan);
  // Share all DFT valves round-robin so the file contains `share` lines.
  int partner = 0;
  for (arch::ValveId v = 0; v < augmented.valve_count(); ++v) {
    if (augmented.valve(v).is_dft) {
      augmented.share_control(v, partner % chip.valve_count());
      partner += 2;
    }
  }
  const arch::Biochip parsed =
      arch::chip_from_string(arch::chip_to_string(augmented));
  ASSERT_EQ(parsed.valve_count(), augmented.valve_count());
  for (arch::ValveId v = 0; v < parsed.valve_count(); ++v) {
    EXPECT_EQ(parsed.valve(v).edge, augmented.valve(v).edge);
    EXPECT_EQ(parsed.valve(v).is_dft, augmented.valve(v).is_dft);
  }
  // Control grouping is preserved (same partition of valves into controls).
  for (arch::ValveId v = 0; v < parsed.valve_count(); ++v) {
    for (arch::ValveId w = 0; w < parsed.valve_count(); ++w) {
      EXPECT_EQ(parsed.valve(v).control == parsed.valve(w).control,
                augmented.valve(v).control == augmented.valve(w).control)
          << "valves " << v << ", " << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperChips, PipelineTest,
    ::testing::Values(&arch::make_ivd_chip, &arch::make_ra30_chip,
                      &arch::make_mrna_chip),
    [](const ::testing::TestParamInfo<arch::Biochip (*)()>& info) {
      return info.param().name();
    });

// The headline end-to-end claim of the paper on the smallest combination:
// after codesign, the chip is single-source single-meter testable with no
// extra control ports and execution time within a sane band of the original.
TEST(EndToEndTest, IvdCodesignReproducesPaperShape) {
  core::CodesignOptions options;
  options.outer_iterations = 4;
  options.config_pool_size = 2;
  const core::CodesignResult r = core::run_codesign(
      arch::make_ivd_chip(), sched::make_ivd_assay(), options);
  ASSERT_TRUE(r.ok()) << r.status.to_string();

  // Single-source single-meter with full fault coverage.
  EXPECT_TRUE(r.tests.coverage.complete());
  // No additional control ports.
  ASSERT_TRUE(r.chip.has_value());
  EXPECT_EQ(r.chip->control_count(),
            arch::make_ivd_chip().control_count());
  // Execution efficiency maintained: optimized within 30% of the original.
  EXPECT_LE(r.exec_dft_optimized, r.exec_original * 1.3);
  // The independent-control variant is no worse than the original (Fig. 7).
  EXPECT_LE(r.exec_dft_independent, r.exec_original * 1.1);
}

}  // namespace
}  // namespace mfd
