#include <gtest/gtest.h>

#include "arch/chips.hpp"
#include "core/report.hpp"

namespace mfd::core {
namespace {

CodesignResult small_run() {
  CodesignOptions options;
  options.outer_iterations = 2;
  options.config_pool_size = 1;
  return run_codesign(arch::make_ivd_chip(), sched::make_ivd_assay(),
                      options);
}

TEST(CostReportTest, SingleSourceSingleMeterAccounting) {
  const arch::Biochip original = arch::make_ivd_chip();
  const CodesignResult result = small_run();
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  const DftCostReport report = build_cost_report(original, result);

  EXPECT_EQ(report.test_devices_before, original.port_count());
  EXPECT_EQ(report.test_devices_after, 2);
  EXPECT_EQ(report.test_devices_saved(), original.port_count() - 2);
  // The headline claim: sharing means zero added control ports.
  EXPECT_EQ(report.control_ports_added(), 0);
  EXPECT_EQ(report.channels_added, result.dft_valve_count);
  EXPECT_GT(report.vectors_dft, 0);
  EXPECT_GT(report.vectors_original, 0);
  EXPECT_GT(report.exec_original, 0.0);
  EXPECT_GT(report.exec_dft, 0.0);
}

TEST(CostReportTest, OverheadIsRelative) {
  DftCostReport report;
  report.exec_original = 100.0;
  report.exec_dft = 125.0;
  EXPECT_NEAR(report.execution_overhead(), 0.25, 1e-12);
  report.exec_original = 0.0;
  EXPECT_DOUBLE_EQ(report.execution_overhead(), 0.0);
}

TEST(CostReportTest, RenderContainsKeyRows) {
  const arch::Biochip original = arch::make_ivd_chip();
  const CodesignResult result = small_run();
  ASSERT_TRUE(result.ok());
  const std::string text =
      render_cost_report(build_cost_report(original, result));
  EXPECT_NE(text.find("pressure sources"), std::string::npos);
  EXPECT_NE(text.find("control ports"), std::string::npos);
  EXPECT_NE(text.find("test vectors"), std::string::npos);
  EXPECT_NE(text.find("execution overhead"), std::string::npos);
}

TEST(CostReportTest, RejectsFailedRun) {
  // A default-constructed result has an ok status but no artifacts; a failed
  // run has a non-ok status. Both must be rejected.
  CodesignResult empty;
  EXPECT_THROW(build_cost_report(arch::make_ivd_chip(), empty), Error);
  CodesignResult failed;
  failed.status = Status::Fail(Outcome::kInfeasible, "baseline_schedule",
                               "assay cannot be scheduled");
  EXPECT_THROW(build_cost_report(arch::make_ivd_chip(), failed), Error);
}

}  // namespace
}  // namespace mfd::core
