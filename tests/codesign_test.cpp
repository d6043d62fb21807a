#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/chips.hpp"
#include "core/codesign.hpp"

namespace mfd::core {
namespace {

using arch::Biochip;

TEST(ApplySharingTest, AssignsPartnersInOrder) {
  Biochip chip = arch::make_ivd_chip();
  const arch::ValveId a =
      chip.add_dft_channel(chip.grid().edge_between(1, 0, 2, 0));
  const arch::ValveId b =
      chip.add_dft_channel(chip.grid().edge_between(2, 0, 3, 0));
  SharingScheme scheme;
  scheme.partner = {3, 7};
  const Biochip shared = apply_sharing(chip, scheme);
  EXPECT_EQ(shared.valve(a).control, shared.valve(3).control);
  EXPECT_EQ(shared.valve(b).control, shared.valve(7).control);
  EXPECT_EQ(shared.control_count(), chip.control_count());  // none added
}

TEST(ApplySharingTest, RejectsWrongArity) {
  Biochip chip = arch::make_ivd_chip();
  chip.add_dft_channel(chip.grid().edge_between(1, 0, 2, 0));
  SharingScheme scheme;  // empty but one DFT valve exists
  EXPECT_THROW(apply_sharing(chip, scheme), Error);
}

TEST(ApplySharingTest, RejectsDftPartner) {
  Biochip chip = arch::make_ivd_chip();
  chip.add_dft_channel(chip.grid().edge_between(1, 0, 2, 0));
  const arch::ValveId second =
      chip.add_dft_channel(chip.grid().edge_between(2, 0, 3, 0));
  SharingScheme scheme;
  scheme.partner = {second, 0};  // DFT valve as partner: invalid
  EXPECT_THROW(apply_sharing(chip, scheme), Error);
}

TEST(DedicatedControlsTest, EveryDftValveGetsOwnControl) {
  Biochip chip = arch::make_ivd_chip();
  chip.add_dft_channel(chip.grid().edge_between(1, 0, 2, 0));
  chip.add_dft_channel(chip.grid().edge_between(2, 0, 3, 0));
  const Biochip dedicated = with_dedicated_controls(chip);
  EXPECT_EQ(dedicated.control_count(), chip.control_count() + 2);
  std::string why;
  EXPECT_TRUE(dedicated.validate(&why)) << why;
}

TEST(EnumerateConfigsTest, ConfigurationsAreDistinct) {
  const Biochip chip = arch::make_figure4_chip();
  const auto pool = enumerate_dft_configurations(chip, 3);
  ASSERT_GE(pool.size(), 1u);
  std::set<std::vector<graph::EdgeId>> seen;
  for (const auto& plan : pool) {
    EXPECT_TRUE(plan.feasible);
    EXPECT_TRUE(seen.insert(plan.added_edges).second)
        << "duplicate configuration";
  }
}

TEST(EnumerateConfigsTest, FirstEntryIsMinimal) {
  const Biochip chip = arch::make_figure4_chip();
  const auto pool = enumerate_dft_configurations(chip, 3);
  ASSERT_GE(pool.size(), 1u);
  for (std::size_t i = 1; i < pool.size(); ++i) {
    EXPECT_GE(pool[i].added_edges.size(), pool[0].added_edges.size());
  }
}

// The pools table1 enumerates on the paper chips (pool sizes 3, 3 and 1,
// default plan options). Round-off in the LP engine can decide which of
// several equal-cost configurations the search finds, so any change to the
// engine's arithmetic shows up here as a different edge set or path. Entry
// 0 is plan_dft_paths() with default options: an uninterrupted exact run
// whose branch-and-bound nodes warm-start from their parents' bases.
TEST(EnumerateConfigsTest, PaperChipPoolsArePinned) {
  using Edges = std::vector<graph::EdgeId>;
  struct Config {
    Edges added;
    std::vector<Edges> paths;
  };
  const std::map<std::string, std::pair<int, std::vector<Config>>> pinned = {
      {"IVD_chip",
       {3,
        {{{14, 15, 25, 30},
          {{4, 22, 9, 23, 6, 7},
           {21, 8, 22, 5, 6, 24, 10, 28, 14, 15, 30, 25}}},
         {{2, 3, 14, 18, 20, 29},
          {{4, 22, 9, 10, 24, 6, 18, 2, 3, 20},
           {21, 8, 22, 5, 23, 28, 14, 29, 24, 7}}}}}},
      {"RA30_chip",
       {3,
        {{{15, 16, 26, 32},
          {{5, 6, 28, 12, 29, 8, 9},
           {26, 32, 15, 16, 34, 11, 27, 21, 1, 22, 7, 29, 13, 30, 9}}},
         {{0, 2, 17, 20, 23, 35},
          {{5, 21, 1, 2, 23, 7, 28, 12, 13, 30, 9},
           {20, 0, 1, 22, 6, 27, 11, 34, 17, 35, 29, 8, 9}}}}}},
      {"mRNA_chip",
       {1,
        {{{3, 23, 26, 34, 50, 53},
          {{12, 38, 7, 8, 9, 10, 42, 16, 15, 14, 46, 20, 21, 22, 23, 50},
           {37, 6, 7, 39, 13, 45, 19, 53, 26, 54, 47, 40, 33, 3, 34, 41, 48,
            22, 49, 17}}}}}}};
  for (const Biochip& chip : arch::make_paper_chips()) {
    SCOPED_TRACE(chip.name());
    const auto& [pool_size, expected] = pinned.at(chip.name());
    const auto pool = enumerate_dft_configurations(chip, pool_size);
    ASSERT_EQ(pool.size(), expected.size());
    EXPECT_EQ(pool[0].method, testgen::PathPlan::Method::kExactIlp);
    EXPECT_TRUE(pool[0].status.ok());
    EXPECT_GT(pool[0].stats.warm_start_attempts, 0);
    EXPECT_GT(pool[0].stats.warm_start_hits, 0);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_TRUE(pool[i].feasible);
      EXPECT_EQ(pool[i].paths_used, 2);
      EXPECT_EQ(pool[i].added_edges, expected[i].added) << "config " << i;
      EXPECT_EQ(pool[i].paths, expected[i].paths) << "config " << i;
    }
  }
}

TEST(EnumerateConfigsTest, AlreadyTestableChipYieldsSingleEmptyConfig) {
  Biochip chip(arch::ConnectionGrid(4, 2), "corridor");
  chip.add_port(0, 0, "L");
  chip.add_port(3, 0, "R");
  chip.add_channel(0, 0, 1, 0);
  chip.add_channel(1, 0, 2, 0);
  chip.add_channel(2, 0, 3, 0);
  const auto pool = enumerate_dft_configurations(chip, 4);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool[0].added_edges.empty());
}

// A small but complete codesign run; kept cheap (few iterations) so the test
// suite stays fast.
class CodesignRunTest : public ::testing::Test {
 protected:
  static CodesignResult run() {
    CodesignOptions options;
    options.outer_iterations = 3;
    options.config_pool_size = 2;
    options.unoptimized_attempts = 50;
    return run_codesign(arch::make_ivd_chip(), sched::make_ivd_assay(),
                        options);
  }
};

TEST_F(CodesignRunTest, SucceedsWithFullArtifacts) {
  const CodesignResult r = run();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.status.outcome, Outcome::kOk);
  EXPECT_GT(r.dft_valve_count, 0);
  EXPECT_EQ(r.shared_valve_count, r.dft_valve_count);
  EXPECT_EQ(static_cast<int>(r.sharing.partner.size()), r.dft_valve_count);

  // The final chip has no extra control ports.
  const Biochip original = arch::make_ivd_chip();
  ASSERT_TRUE(r.chip.has_value());
  EXPECT_EQ(r.chip->control_count(), original.control_count());
  EXPECT_EQ(r.chip->dft_valve_count(), r.dft_valve_count);
  std::string why;
  EXPECT_TRUE(r.chip->validate(&why)) << why;

  // Test vectors achieve full coverage on the final chip.
  EXPECT_TRUE(r.tests.coverage.complete());
  EXPECT_GT(r.tests.size(), 0);

  // The reported schedule matches the optimized execution time.
  ASSERT_TRUE(r.schedule.has_value());
  ASSERT_TRUE(r.schedule->feasible);
  EXPECT_NEAR(r.schedule->makespan, r.exec_dft_optimized, 1e-9);
}

TEST_F(CodesignRunTest, ExecutionTimeOrderingsHold) {
  const CodesignResult r = run();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(std::isfinite(r.exec_original));
  EXPECT_TRUE(std::isfinite(r.exec_dft_optimized));
  // PSO can only improve on the unoptimized sharing.
  EXPECT_LE(r.exec_dft_optimized, r.exec_dft_unoptimized + 1e-9);
  // Convergence is monotone and ends at the optimized value.
  ASSERT_FALSE(r.convergence.empty());
  for (std::size_t i = 1; i < r.convergence.size(); ++i) {
    EXPECT_LE(r.convergence[i], r.convergence[i - 1] + 1e-12);
  }
  EXPECT_NEAR(r.convergence.back(), r.exec_dft_optimized, 1e-9);
}

TEST_F(CodesignRunTest, DeterministicForFixedSeed) {
  const CodesignResult a = run();
  const CodesignResult b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.exec_dft_optimized, b.exec_dft_optimized);
  EXPECT_EQ(a.sharing.partner, b.sharing.partner);
  EXPECT_EQ(a.convergence, b.convergence);
}

TEST(CodesignFailureTest, ReportsWhenAssayCannotRun) {
  // figure4 chip has no devices, so any assay is unschedulable.
  CodesignOptions options;
  options.outer_iterations = 1;
  const CodesignResult r = run_codesign(arch::make_figure4_chip(),
                                        sched::make_ivd_assay(), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.outcome, Outcome::kInfeasible);
  EXPECT_EQ(r.status.stage, "baseline_schedule");
  EXPECT_NE(r.status.message.find("schedul"), std::string::npos);
  EXPECT_FALSE(r.chip.has_value());
  EXPECT_FALSE(r.schedule.has_value());
}

}  // namespace
}  // namespace mfd::core
