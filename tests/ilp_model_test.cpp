#include <gtest/gtest.h>

#include "ilp/model.hpp"
#include "ilp/revised_simplex.hpp"
#include "oracle/dense_simplex.hpp"

namespace mfd::ilp {
namespace {

TEST(LinearExprTest, EvaluateWithConstant) {
  LinearExpr e;
  e.add(0, 2.0).add(1, -1.0).add_constant(5.0);
  EXPECT_DOUBLE_EQ(e.evaluate({3.0, 4.0}), 2 * 3 - 4 + 5);
}

TEST(LinearExprTest, NormalizeMergesDuplicates) {
  LinearExpr e;
  e.add(0, 1.0).add(0, 2.0).add(1, 1.0).add(1, -1.0);
  e.normalize();
  ASSERT_EQ(e.terms().size(), 1u);
  EXPECT_EQ(e.terms()[0].var, 0);
  EXPECT_DOUBLE_EQ(e.terms()[0].coeff, 3.0);
}

TEST(ConstraintTest, SatisfiedRespectsSense) {
  Constraint le{LinearExpr().add(0, 1.0), Sense::kLessEqual, 2.0};
  EXPECT_TRUE(le.satisfied({2.0}));
  EXPECT_TRUE(le.satisfied({1.0}));
  EXPECT_FALSE(le.satisfied({3.0}));

  Constraint eq{LinearExpr().add(0, 1.0), Sense::kEqual, 2.0};
  EXPECT_TRUE(eq.satisfied({2.0}));
  EXPECT_FALSE(eq.satisfied({2.1}));

  Constraint ge{LinearExpr().add(0, 1.0), Sense::kGreaterEqual, 2.0};
  EXPECT_TRUE(ge.satisfied({3.0}));
  EXPECT_FALSE(ge.satisfied({1.0}));
}

TEST(ModelTest, VariablesCarryBoundsAndTypes) {
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_continuous(-2.0, 7.5, "y");
  EXPECT_EQ(m.variable_count(), 2);
  EXPECT_EQ(m.variable(x).type, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.variable(y).lower, -2.0);
  EXPECT_DOUBLE_EQ(m.variable(y).upper, 7.5);
  EXPECT_EQ(m.variable(y).name, "y");
}

TEST(ModelTest, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_continuous(3.0, 1.0), Error);
}

TEST(ModelTest, RejectsBinaryOutsideUnit) {
  Model m;
  EXPECT_THROW(m.add_variable(VarType::kBinary, 0.0, 2.0), Error);
}

TEST(ModelTest, ConstraintFoldsConstantIntoRhs) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0);
  LinearExpr e;
  e.add(x, 1.0).add_constant(4.0);
  m.add_constraint(std::move(e), Sense::kLessEqual, 10.0);
  const Constraint& c = m.constraints()[0];
  EXPECT_DOUBLE_EQ(c.rhs, 6.0);
  EXPECT_DOUBLE_EQ(c.expr.constant(), 0.0);
}

TEST(ModelTest, ConstraintRejectsUnknownVariable) {
  Model m;
  m.add_binary();
  EXPECT_THROW(
      m.add_constraint(LinearExpr().add(5, 1.0), Sense::kEqual, 0.0), Error);
}

TEST(ModelTest, BranchPriorityStored) {
  Model m;
  const VarId x = m.add_binary();
  EXPECT_EQ(m.variable(x).branch_priority, 0);
  m.set_branch_priority(x, 7);
  EXPECT_EQ(m.variable(x).branch_priority, 7);
}

TEST(ModelTest, HasIntegerVariables) {
  Model continuous_only;
  continuous_only.add_continuous(0, 1);
  EXPECT_FALSE(continuous_only.has_integer_variables());
  Model mixed;
  mixed.add_continuous(0, 1);
  mixed.add_binary();
  EXPECT_TRUE(mixed.has_integer_variables());
}

TEST(ModelTest, FeasibleChecksBoundsIntegralityAndConstraints) {
  Model m;
  const VarId x = m.add_binary();
  const VarId y = m.add_continuous(0.0, 4.0);
  m.add_constraint(LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kLessEqual,
                   3.0);
  EXPECT_TRUE(m.feasible({1.0, 2.0}));
  EXPECT_FALSE(m.feasible({0.5, 1.0}));   // fractional binary
  EXPECT_FALSE(m.feasible({1.0, 5.0}));   // bound violation
  EXPECT_FALSE(m.feasible({1.0, 3.0}));   // constraint violation
  EXPECT_FALSE(m.feasible({1.0}));        // wrong arity
}

TEST(ModelTest, MaximizeFlagRoundTrips) {
  Model m;
  const VarId x = m.add_binary();
  m.set_objective(LinearExpr().add(x, 1.0), /*minimize=*/false);
  EXPECT_FALSE(m.minimize());
}

// --- presolve edge cases (observed through solve_lp + SolveStats) ---------

TEST(PresolveTest, AllFixedModelSolvesWithoutPivots) {
  Model m;
  const VarId x = m.add_continuous(2.0, 2.0);
  const VarId y = m.add_continuous(-1.0, -1.0);
  m.add_constraint(LinearExpr().add(x, 1.0).add(y, 1.0), Sense::kLessEqual,
                   5.0);
  m.set_objective(LinearExpr().add(x, 1.0).add(y, 2.0));

  SolveStats stats;
  LpOptions options;
  options.stats = &stats;
  const LpResult result = solve_lp(m, {}, {}, options);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
  EXPECT_DOUBLE_EQ(result.values[0], 2.0);
  EXPECT_DOUBLE_EQ(result.values[1], -1.0);
  EXPECT_EQ(stats.presolve_fixed_columns, 2);
  // A fully fixed model needs no simplex pivots at all.
  EXPECT_EQ(stats.pivots, 0);
}

TEST(PresolveTest, AllFixedModelViolatingRowIsInfeasible) {
  Model m;
  const VarId x = m.add_continuous(2.0, 2.0);
  m.add_constraint(LinearExpr().add(x, 1.0), Sense::kLessEqual, 1.0);
  m.set_objective(LinearExpr().add(x, 1.0));
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(PresolveTest, ConflictingBoundOverridesAreInfeasible) {
  // Model bounds are validated at add_variable(); a conflict can only come
  // from branch-and-bound overrides, which presolve must reject.
  Model m;
  m.add_continuous(0.0, 2.0);
  m.set_objective(LinearExpr().add(0, 1.0));
  EXPECT_EQ(solve_lp(m, /*lower=*/{1.5}, /*upper=*/{1.0}).status,
            LpStatus::kInfeasible);
}

TEST(PresolveTest, EmptyConstraintRowsAreRedundantOrInfeasible) {
  {
    Model m;
    const VarId x = m.add_continuous(0.0, 1.0);
    m.add_constraint(LinearExpr(), Sense::kLessEqual, 5.0);  // 0 <= 5: fine
    m.set_objective(LinearExpr().add(x, 1.0));
    SolveStats stats;
    LpOptions options;
    options.stats = &stats;
    const LpResult result = solve_lp(m, {}, {}, options);
    ASSERT_EQ(result.status, LpStatus::kOptimal);
    EXPECT_GE(stats.presolve_redundant_rows, 1);
  }
  {
    Model m;
    const VarId x = m.add_continuous(0.0, 1.0);
    m.add_constraint(LinearExpr(), Sense::kGreaterEqual, 5.0);  // 0 >= 5
    m.set_objective(LinearExpr().add(x, 1.0));
    EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
  }
  {
    Model m;
    const VarId x = m.add_continuous(0.0, 1.0);
    m.add_constraint(LinearExpr(), Sense::kEqual, 5.0);  // 0 == 5
    m.set_objective(LinearExpr().add(x, 1.0));
    EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
  }
}

TEST(PresolveTest, SingletonRowTightensBounds) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0);
  m.add_constraint(LinearExpr().add(x, 2.0), Sense::kLessEqual, 6.0);
  m.set_objective(LinearExpr().add(x, 1.0), /*minimize=*/false);

  SolveStats stats;
  LpOptions options;
  options.stats = &stats;
  const LpResult result = solve_lp(m, {}, {}, options);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.values[0], 3.0, 1e-9);
  EXPECT_GE(stats.presolve_bound_tightenings, 1);
}

TEST(PresolveTest, BoundTighteningProvesInfeasibility) {
  // Two singleton rows squeeze x into an empty interval: the first tightens
  // the lower bound to 1.5, the second the upper bound to 1.0.
  Model m;
  const VarId x = m.add_continuous(0.0, 2.0);
  m.add_constraint(LinearExpr().add(x, 1.0), Sense::kGreaterEqual, 1.5);
  m.add_constraint(LinearExpr().add(x, 1.0), Sense::kLessEqual, 1.0);
  m.set_objective(LinearExpr().add(x, 1.0));
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);

  // The dense oracle agrees.
  EXPECT_EQ(solve_lp_dense(m).status, LpStatus::kInfeasible);
}

}  // namespace
}  // namespace mfd::ilp
