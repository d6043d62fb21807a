// Leakage faults (flow channel leaking into the control channel, per [15]):
// opt-in third defect class, observed at the control port.
#include <gtest/gtest.h>

#include "arch/chips.hpp"
#include "core/codesign.hpp"
#include "sim/pressure.hpp"
#include "testgen/path_ilp.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::sim {
namespace {

TEST(LeakageTest, UniverseGrowsByOnePerValve) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const auto stuck = all_faults(chip, FaultUniverse::kStuckAt);
  const auto with_leakage =
      all_faults(chip, FaultUniverse::kStuckAtAndLeakage);
  EXPECT_EQ(with_leakage.size(),
            stuck.size() + static_cast<std::size_t>(chip.valve_count()));
  EXPECT_EQ(with_leakage.back().kind, FaultKind::kLeakage);
}

TEST(LeakageTest, DoesNotDisturbFlowReading) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const PressureSimulator sim(chip);
  TestVector v;
  v.kind = VectorKind::kPath;
  v.source = 0;
  v.meter = 2;
  v.control_open = controls_closed_except(chip, {0, 1, 4, 5});
  v.expected_pressure = true;
  const Fault leak{1, FaultKind::kLeakage};
  EXPECT_EQ(sim.measure(v, leak), sim.measure(v));
}

TEST(LeakageTest, ControlPortReadsLeakWhenSiteIsPressurized) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const PressureSimulator sim(chip);
  // Path P0 -> J via valves 0,1: the leak at valve 1 (open, on the path) is
  // visible at its control port.
  TestVector v;
  v.kind = VectorKind::kPath;
  v.source = 0;
  v.meter = 2;
  v.control_open = controls_closed_except(chip, {0, 1, 4, 5});
  v.expected_pressure = true;
  EXPECT_TRUE(sim.control_port_pressure(v, Fault{1, FaultKind::kLeakage}));
  EXPECT_TRUE(sim.detects(v, Fault{1, FaultKind::kLeakage}));
}

TEST(LeakageTest, PressurizedControlMasksTheLeak) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const PressureSimulator sim(chip);
  // Valve 2 is closed (control pressurized): its control channel already
  // holds pressure, so the leak cannot be observed.
  TestVector v;
  v.kind = VectorKind::kPath;
  v.source = 0;
  v.meter = 2;
  v.control_open = controls_closed_except(chip, {0, 1, 4, 5});
  EXPECT_FALSE(sim.control_port_pressure(v, Fault{2, FaultKind::kLeakage}));
}

TEST(LeakageTest, UnreachableSiteIsNotObserved) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const PressureSimulator sim(chip);
  // Only valve 5 open (P2 stub, far from the source at P0): valve 5's site
  // is not connected to the source, so no pressure can leak there.
  TestVector v;
  v.kind = VectorKind::kPath;
  v.source = 0;
  v.meter = 2;
  v.control_open = controls_closed_except(chip, {5});
  EXPECT_FALSE(sim.control_port_pressure(v, Fault{5, FaultKind::kLeakage}));
}

TEST(LeakageTest, FaultFreeControlPortsStaySilent) {
  const arch::Biochip chip = arch::make_figure4_chip();
  const PressureSimulator sim(chip);
  TestVector v;
  v.kind = VectorKind::kPath;
  v.source = 0;
  v.meter = 2;
  v.control_open = controls_closed_except(chip, {0, 1, 4, 5});
  EXPECT_FALSE(sim.control_port_pressure(v, Fault{1, FaultKind::kStuckAt1}));
}

// The structural result: a stuck-at suite covers every leakage fault for
// free, because every valve lies on an open source-connected test path.
class LeakageCoverageTest
    : public ::testing::TestWithParam<arch::Biochip (*)()> {};

TEST_P(LeakageCoverageTest, StuckAtSuiteCoversLeakage) {
  const arch::Biochip chip = GetParam()();
  const auto suite = testgen::generate_test_suite_multiport(chip);
  ASSERT_TRUE(suite.has_value());
  const CoverageReport report = evaluate_coverage(
      chip, suite->vectors, FaultUniverse::kStuckAtAndLeakage);
  EXPECT_TRUE(report.complete())
      << report.undetected.size() << " faults undetected, first: "
      << (report.undetected.empty() ? std::string("-")
                                    : to_string(report.undetected.front()));
}

INSTANTIATE_TEST_SUITE_P(
    PaperChips, LeakageCoverageTest,
    ::testing::Values(&arch::make_figure4_chip, &arch::make_ivd_chip,
                      &arch::make_ra30_chip, &arch::make_mrna_chip),
    [](const ::testing::TestParamInfo<arch::Biochip (*)()>& info) {
      return info.param().name();
    });

TEST(LeakageTest, SingleMeterDftSuiteAlsoCoversLeakage) {
  const arch::Biochip chip = arch::make_ivd_chip();
  const testgen::PathPlan plan = testgen::plan_dft_paths(chip);
  ASSERT_TRUE(plan.feasible);
  const arch::Biochip augmented =
      core::with_dedicated_controls(testgen::apply_plan(chip, plan));
  testgen::VectorGenOptions options;
  options.plan = &plan;
  const auto suite = testgen::generate_test_suite(augmented, plan.source,
                                                  plan.meter, options);
  ASSERT_TRUE(suite.has_value());
  const CoverageReport report = evaluate_coverage(
      augmented, suite->vectors, FaultUniverse::kStuckAtAndLeakage);
  EXPECT_TRUE(report.complete());
}

}  // namespace
}  // namespace mfd::sim
