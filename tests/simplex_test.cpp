#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ilp/revised_simplex.hpp"

namespace mfd::ilp {
namespace {

TEST(SimplexTest, TwoVariableMaximization) {
  // max 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6,  0 <= x,y <= 10.
  Model m;
  const VarId x = m.add_continuous(0, 10);
  const VarId y = m.add_continuous(0, 10);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 4);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 3), Sense::kLessEqual, 6);
  m.set_objective(LinearExpr().add(x, 3).add(y, 2), /*minimize=*/false);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(x)], 4.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(y)], 0.0, 1e-6);
}

TEST(SimplexTest, MinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t.  x + y >= 5, x <= 3.
  Model m;
  const VarId x = m.add_continuous(0, 3);
  const VarId y = m.add_continuous(0, 100);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual, 5);
  m.set_objective(LinearExpr().add(x, 2).add(y, 3));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2 * 3 + 3 * 2, 1e-6);
}

TEST(SimplexTest, EqualityConstraint) {
  Model m;
  const VarId x = m.add_continuous(0, 10);
  const VarId y = m.add_continuous(0, 10);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 2), Sense::kEqual, 8);
  m.set_objective(LinearExpr().add(x, 1).add(y, 1));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Cheapest: y = 4, x = 0 -> objective 4.
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  const VarId x = m.add_continuous(0, 10);
  m.add_constraint(LinearExpr().add(x, 1), Sense::kGreaterEqual, 5);
  m.add_constraint(LinearExpr().add(x, 1), Sense::kLessEqual, 2);
  m.set_objective(LinearExpr().add(x, 1));
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  Model m;
  const VarId x = m.add_variable(
      VarType::kContinuous, 0.0, std::numeric_limits<double>::infinity());
  m.set_objective(LinearExpr().add(x, 1), /*minimize=*/false);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableUpperBoundsWithoutRows) {
  // No constraints at all: optimum sits on the bounds.
  Model m;
  const VarId x = m.add_continuous(1.0, 3.0);
  const VarId y = m.add_continuous(-2.0, 2.0);
  m.set_objective(LinearExpr().add(x, 1).add(y, -1));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(x)], 1.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(y)], 2.0, 1e-6);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(SimplexTest, NegativeLowerBoundsShiftCorrectly) {
  // min x + y  s.t.  x + y >= -1,  x,y in [-5, 5].
  Model m;
  const VarId x = m.add_continuous(-5, 5);
  const VarId y = m.add_continuous(-5, 5);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual,
                   -1);
  m.set_objective(LinearExpr().add(x, 1).add(y, 1));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(SimplexTest, BoundOverridesTightenTheRelaxation) {
  Model m;
  const VarId x = m.add_continuous(0, 10);
  m.set_objective(LinearExpr().add(x, -1));  // push x up
  const LpResult unconstrained = solve_lp(m);
  EXPECT_NEAR(unconstrained.values[0], 10.0, 1e-6);
  const LpResult overridden = solve_lp(m, {0.0}, {4.0});
  EXPECT_NEAR(overridden.values[0], 4.0, 1e-6);
}

TEST(SimplexTest, ConflictingOverridesAreInfeasible) {
  Model m;
  m.add_continuous(0, 10);
  m.set_objective(LinearExpr());
  EXPECT_EQ(solve_lp(m, {5.0}, {4.0}).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, ObjectiveConstantCarriesThrough) {
  Model m;
  const VarId x = m.add_continuous(0, 1);
  m.set_objective(LinearExpr().add(x, 1).add_constant(10.0));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
}

TEST(SimplexTest, DegenerateConstraintsStillSolve) {
  // Multiple redundant constraints producing degenerate pivots.
  Model m;
  const VarId x = m.add_continuous(0, 10);
  const VarId y = m.add_continuous(0, 10);
  for (int i = 0; i < 5; ++i) {
    m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kLessEqual,
                     4.0);
  }
  m.add_constraint(LinearExpr().add(x, 1), Sense::kLessEqual, 4.0);
  m.set_objective(LinearExpr().add(x, -1).add(y, -1));
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-6);
}

// Random LPs: the simplex solution must be feasible and at least as good as
// any random feasible point (local sanity proxy for optimality).
class SimplexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexPropertyTest, OptimumDominatesRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
  const int n = rng.uniform_int(2, 5);
  const int rows = rng.uniform_int(1, 5);
  Model m;
  for (int v = 0; v < n; ++v) m.add_continuous(0.0, rng.uniform(1.0, 5.0));
  // Constraints sum(a_j x_j) <= b with a_j >= 0 keep the origin feasible.
  for (int c = 0; c < rows; ++c) {
    LinearExpr e;
    for (int v = 0; v < n; ++v) e.add(v, rng.uniform(0.0, 2.0));
    m.add_constraint(std::move(e), Sense::kLessEqual, rng.uniform(1.0, 6.0));
  }
  LinearExpr objective;
  for (int v = 0; v < n; ++v) objective.add(v, rng.uniform(-2.0, 2.0));
  m.set_objective(objective);

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_TRUE(m.feasible(r.values, 1e-5));

  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> candidate;
    for (int v = 0; v < n; ++v) {
      candidate.push_back(rng.uniform(0.0, m.variable(v).upper));
    }
    if (!m.feasible(candidate, 1e-9)) continue;
    EXPECT_LE(r.objective, objective.evaluate(candidate) + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexPropertyTest,
                         ::testing::Range(1, 26));

}  // namespace
}  // namespace mfd::ilp
