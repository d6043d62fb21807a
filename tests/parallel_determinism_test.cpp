// Thread-count independence of the codesign pipeline: with a fixed seed the
// full CodesignResult — chosen configuration, sharing scheme, makespans and
// the per-iteration convergence trace — must be bit-identical whether the
// fitness batches run serially (threads=1) or on a pool (threads=8).
#include <gtest/gtest.h>

#include "arch/chips.hpp"
#include "arch/synthetic.hpp"
#include "core/codesign.hpp"
#include "sched/synthetic.hpp"

namespace mfd::core {
namespace {

CodesignOptions fast_options(std::uint64_t seed) {
  CodesignOptions options;
  options.outer_iterations = 3;
  options.config_pool_size = 2;
  options.unoptimized_attempts = 30;
  options.seed = seed;
  return options;
}

void expect_identical(const CodesignResult& serial,
                      const CodesignResult& parallel) {
  ASSERT_EQ(serial.status.outcome, parallel.status.outcome);
  EXPECT_EQ(serial.status.stage, parallel.status.stage);
  EXPECT_EQ(serial.status.message, parallel.status.message);
  EXPECT_EQ(serial.chosen_config, parallel.chosen_config);
  EXPECT_EQ(serial.sharing.partner, parallel.sharing.partner);
  EXPECT_EQ(serial.convergence, parallel.convergence);  // bit-identical
  EXPECT_EQ(serial.exec_original, parallel.exec_original);
  EXPECT_EQ(serial.exec_dft_unoptimized, parallel.exec_dft_unoptimized);
  EXPECT_EQ(serial.exec_dft_optimized, parallel.exec_dft_optimized);
  EXPECT_EQ(serial.exec_dft_independent, parallel.exec_dft_independent);
  ASSERT_EQ(serial.schedule.has_value(), parallel.schedule.has_value());
  if (serial.schedule.has_value()) {
    EXPECT_EQ(serial.schedule->makespan, parallel.schedule->makespan);
  }
  EXPECT_EQ(serial.dft_valve_count, parallel.dft_valve_count);
  // Counters are part of the contract: dedupe happens before dispatch, so
  // they cannot depend on the thread count.
  EXPECT_EQ(serial.stats.evaluations, parallel.stats.evaluations);
  EXPECT_EQ(serial.stats.cache_hits, parallel.stats.cache_hits);
  EXPECT_EQ(serial.stats.scheduler_runs, parallel.stats.scheduler_runs);
  EXPECT_EQ(serial.stats.testgen_runs, parallel.stats.testgen_runs);
  EXPECT_EQ(serial.stats.outer_evaluations, parallel.stats.outer_evaluations);
  EXPECT_EQ(serial.stats.inner_evaluations, parallel.stats.inner_evaluations);
  if (serial.ok()) {
    EXPECT_EQ(serial.tests.vectors.size(), parallel.tests.vectors.size());
  }
}

TEST(ParallelDeterminismTest, IvdChipIdenticalAcrossThreadCounts) {
  const arch::Biochip chip = arch::make_ivd_chip();
  const sched::Assay assay = sched::make_ivd_assay();

  CodesignOptions serial_options = fast_options(2024);
  serial_options.threads = 1;
  const CodesignResult serial = run_codesign(chip, assay, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status.to_string();
  EXPECT_EQ(serial.threads_used, 1);

  for (const int threads : {2, 8}) {
    CodesignOptions parallel_options = fast_options(2024);
    parallel_options.threads = threads;
    const CodesignResult parallel =
        run_codesign(chip, assay, parallel_options);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical(serial, parallel);
  }
}

class SyntheticDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticDeterminismTest, RandomChipAndAssayIdentical) {
  // Property over generated instances: whatever the pipeline does with this
  // chip/assay (succeed, fail to plan, fail to share), both thread counts
  // must do exactly the same thing.
  const auto param = static_cast<std::uint64_t>(GetParam());
  Rng chip_rng(param * 271 + 9);
  arch::SyntheticChipSpec chip_spec;
  chip_spec.grid_width = 5;
  chip_spec.grid_height = 4;
  chip_spec.ports = 2 + GetParam() % 2;
  chip_spec.extra_channels = 2;
  const arch::Biochip chip = arch::make_synthetic_chip(chip_spec, chip_rng);

  Rng assay_rng(param * 733 + 5);
  sched::SyntheticAssaySpec assay_spec;
  assay_spec.operations = 6;
  const sched::Assay assay =
      sched::make_synthetic_assay(assay_spec, assay_rng);

  CodesignOptions serial_options = fast_options(1000 + param);
  serial_options.outer_iterations = 2;
  serial_options.threads = 1;
  CodesignOptions parallel_options = serial_options;
  parallel_options.threads = 8;

  const CodesignResult serial = run_codesign(chip, assay, serial_options);
  const CodesignResult parallel = run_codesign(chip, assay, parallel_options);
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticDeterminismTest,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace mfd::core
