#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "ilp/solver.hpp"

namespace mfd::ilp {
namespace {

TEST(IlpSolverTest, KnapsackPicksBestItems) {
  // max 10a + 6b + 4c  s.t.  a + b + c <= 2.
  Model m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  const VarId c = m.add_binary();
  m.add_constraint(LinearExpr().add(a, 1).add(b, 1).add(c, 1),
                   Sense::kLessEqual, 2);
  m.set_objective(LinearExpr().add(a, 10).add(b, 6).add(c, 4),
                  /*minimize=*/false);
  const Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-6);
  EXPECT_TRUE(s.binary_value(a));
  EXPECT_TRUE(s.binary_value(b));
  EXPECT_FALSE(s.binary_value(c));
}

TEST(IlpSolverTest, IntegerRoundingMatters) {
  // LP relaxation of: max x  s.t. 2x <= 3, x integer in [0,5] gives 1.5;
  // the IP optimum is 1.
  Model m;
  const VarId x = m.add_variable(VarType::kInteger, 0, 5);
  m.add_constraint(LinearExpr().add(x, 2), Sense::kLessEqual, 3);
  m.set_objective(LinearExpr().add(x, 1), /*minimize=*/false);
  const Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(IlpSolverTest, SetCover) {
  // Universe {0,1,2}; sets A={0,1}, B={1,2}, C={2}; min cardinality cover.
  Model m;
  const VarId a = m.add_binary();
  const VarId b = m.add_binary();
  const VarId c = m.add_binary();
  m.add_constraint(LinearExpr().add(a, 1), Sense::kGreaterEqual, 1);  // 0
  m.add_constraint(LinearExpr().add(a, 1).add(b, 1), Sense::kGreaterEqual,
                   1);  // 1
  m.add_constraint(LinearExpr().add(b, 1).add(c, 1), Sense::kGreaterEqual,
                   1);  // 2
  m.set_objective(LinearExpr().add(a, 1).add(b, 1).add(c, 1));
  const Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  // Both two-set covers ({A,B} and {A,C}) are optimal; A is forced.
  EXPECT_TRUE(s.binary_value(a));
  EXPECT_TRUE(s.binary_value(b) || s.binary_value(c));
}

TEST(IlpSolverTest, InfeasibleModelReported) {
  Model m;
  const VarId x = m.add_binary();
  const VarId y = m.add_binary();
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual, 3);
  m.set_objective(LinearExpr().add(x, 1));
  EXPECT_EQ(solve_ilp(m).status, SolveStatus::kInfeasible);
}

TEST(IlpSolverTest, MixedIntegerContinuous) {
  // min y  s.t.  y >= x - 0.5, y >= 0.5 - x, x binary, y continuous:
  // both x choices give y = 0.5.
  Model m;
  const VarId x = m.add_binary();
  const VarId y = m.add_continuous(0, 10);
  m.add_constraint(LinearExpr().add(y, 1).add(x, -1), Sense::kGreaterEqual,
                   -0.5);
  m.add_constraint(LinearExpr().add(y, 1).add(x, 1), Sense::kGreaterEqual,
                   0.5);
  m.set_objective(LinearExpr().add(y, 1));
  const Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.5, 1e-6);
}

TEST(IlpSolverTest, LazyConstraintRejectsCandidate) {
  // min x1 + 2*x2, x1 + x2 >= 1; the lazy callback vetoes the x1-only
  // solution, forcing x2 = 1.
  Model m;
  const VarId x1 = m.add_binary();
  const VarId x2 = m.add_binary();
  m.add_constraint(LinearExpr().add(x1, 1).add(x2, 1), Sense::kGreaterEqual,
                   1);
  m.set_objective(LinearExpr().add(x1, 1).add(x2, 2));
  const Solution s = solve_ilp(
      m, {}, [&](const std::vector<double>& candidate) {
        std::vector<Constraint> cuts;
        if (candidate[static_cast<std::size_t>(x1)] > 0.5 &&
            candidate[static_cast<std::size_t>(x2)] < 0.5) {
          cuts.push_back(Constraint{LinearExpr().add(x2, 1.0),
                                    Sense::kGreaterEqual, 1.0});
        }
        return cuts;
      });
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(s.binary_value(x2));
  EXPECT_GE(s.lazy_constraints_added, 1);
}

TEST(IlpSolverTest, NodeLimitReturnsStatus) {
  Model m;
  // A model needing branching: maximize sum with a fractional-LP knapsack.
  LinearExpr weight;
  LinearExpr value;
  for (int i = 0; i < 12; ++i) {
    const VarId v = m.add_binary();
    weight.add(v, 3.0 + (i % 3));
    value.add(v, 5.0 + (i % 4));
  }
  // Budget 16 makes the LP relaxation fractional (the greedy prefix fills
  // 14 and takes 2/3 of the next item), so branching is unavoidable.
  m.add_constraint(std::move(weight), Sense::kLessEqual, 16.0);
  m.set_objective(std::move(value), /*minimize=*/false);
  SolverOptions options;
  options.max_nodes = 2;
  const Solution s = solve_ilp(m, options);
  EXPECT_EQ(s.status, SolveStatus::kNodeLimit);
}

TEST(IlpSolverTest, AbsoluteGapAcceptsNearOptimal) {
  // Two solutions with objectives 10 and 10.4; gap 0.5 may return either
  // but must return a feasible one within the gap of the optimum.
  Model m;
  const VarId x = m.add_binary();
  m.set_objective(LinearExpr().add(x, 0.4).add_constant(10.0));
  SolverOptions options;
  options.absolute_gap = 0.5;
  const Solution s = solve_ilp(m, options);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(s.objective, 10.0 + 0.5 + 1e-9);
}

TEST(IlpSolverTest, BranchPriorityChangesExploration) {
  // Not a behavioural guarantee test, just exercises the code path: both
  // priority assignments must reach the same optimum.
  for (int priority : {0, 5}) {
    Model m;
    LinearExpr weight;
    LinearExpr value;
    for (int i = 0; i < 8; ++i) {
      const VarId v = m.add_binary();
      if (i < 4) m.set_branch_priority(v, priority);
      weight.add(v, 2.0 + (i % 2));
      value.add(v, 3.0 + (i % 3));
    }
    m.add_constraint(std::move(weight), Sense::kLessEqual, 9.0);
    m.set_objective(std::move(value), /*minimize=*/false);
    const Solution s = solve_ilp(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    // Optimum: values {5,5,4,3} at weights {2,2,3,2} = 9.
    EXPECT_NEAR(s.objective, 17.0, 1e-6) << "priority " << priority;
  }
}

// Randomized cross-check against exhaustive enumeration.
class IlpBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(IlpBruteForceTest, MatchesExhaustiveEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717 + 3);
  const int n = rng.uniform_int(3, 10);
  const int rows = rng.uniform_int(1, 4);
  Model m;
  for (int v = 0; v < n; ++v) m.add_binary();
  std::vector<Constraint> stored;
  for (int c = 0; c < rows; ++c) {
    LinearExpr e;
    for (int v = 0; v < n; ++v) e.add(v, rng.uniform(-2.0, 3.0));
    const double rhs = rng.uniform(-1.0, static_cast<double>(n));
    const Sense sense = rng.flip(0.5) ? Sense::kLessEqual
                                      : Sense::kGreaterEqual;
    m.add_constraint(e, sense, rhs);
  }
  LinearExpr objective;
  std::vector<double> cost(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    cost[static_cast<std::size_t>(v)] = rng.uniform(-3.0, 3.0);
    objective.add(v, cost[static_cast<std::size_t>(v)]);
  }
  m.set_objective(objective);

  // Brute force over all 2^n assignments.
  double best = std::numeric_limits<double>::infinity();
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::vector<double> candidate(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      candidate[static_cast<std::size_t>(v)] = (bits >> v) & 1;
    }
    if (!m.feasible(candidate, 1e-9)) continue;
    best = std::min(best, objective.evaluate(candidate));
  }

  const Solution s = solve_ilp(m);
  if (std::isinf(best)) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << "brute-force optimum " << best;
    EXPECT_NEAR(s.objective, best, 1e-5);
    EXPECT_TRUE(m.feasible(s.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIlps, IlpBruteForceTest,
                         ::testing::Range(1, 41));

// An odd-cycle stable-set instance: the LP relaxation sits at 7.5 (all
// one-half) while the integer optimum is 7, so the bound stays loose and the
// search grinds through many nodes after early incumbents appear.
Model odd_cycle_model(int length) {
  Model m;
  LinearExpr objective;
  for (int i = 0; i < length; ++i) {
    objective.add(m.add_binary(), 1.0);
  }
  for (int i = 0; i < length; ++i) {
    LinearExpr edge;
    edge.add(i, 1.0).add((i + 1) % length, 1.0);
    m.add_constraint(std::move(edge), Sense::kLessEqual, 1.0);
  }
  m.set_objective(std::move(objective), /*minimize=*/false);
  return m;
}

TEST(IlpSolverTest, NodeLimitRetainsIncumbentAndStats) {
  // The 12-item knapsack from NodeLimitReturnsStatus takes ~146 nodes to
  // prove optimality; best-first lands its first incumbent near node 100, so
  // a 120-node budget deterministically stops *after* one exists.
  Model m;
  LinearExpr weight;
  LinearExpr value;
  for (int i = 0; i < 12; ++i) {
    const VarId v = m.add_binary();
    weight.add(v, 3.0 + (i % 3));
    value.add(v, 5.0 + (i % 4));
  }
  m.add_constraint(std::move(weight), Sense::kLessEqual, 15.6);
  m.set_objective(std::move(value), /*minimize=*/false);

  SolverOptions options;
  options.max_nodes = 120;
  const Solution s = solve_ilp(m, options);
  ASSERT_EQ(s.status, SolveStatus::kNodeLimit);
  // A cut-short solve must still surface the incumbent and the work done.
  ASSERT_TRUE(s.has_solution());
  EXPECT_TRUE(m.feasible(s.values, 1e-6));
  EXPECT_GT(s.objective, 0.0);
  EXPECT_EQ(s.nodes_explored, 120);
  EXPECT_GT(s.runtime_seconds, 0.0);
  EXPECT_GT(s.stats.lp_solves, 0);
  EXPECT_GT(s.stats.pivots, 0);
}

TEST(IlpSolverTest, CancelDuringSearchKeepsIncumbentStats) {
  const Model m = odd_cycle_model(15);
  RunControl control;
  SolverOptions options;
  options.control = &control;
  // Cancel from the lazy callback the moment the first integral candidate
  // appears: the candidate is accepted (no cuts), then the loop observes the
  // stop — a deterministic "stopped with incumbent" state.
  const Solution s = solve_ilp(m, options, [&](const std::vector<double>&) {
    control.request_cancel();
    return std::vector<Constraint>{};
  });
  ASSERT_EQ(s.status, SolveStatus::kStopped);
  ASSERT_TRUE(s.has_solution());
  EXPECT_TRUE(m.feasible(s.values, 1e-6));
  EXPECT_GT(s.nodes_explored, 0);
  EXPECT_GT(s.runtime_seconds, 0.0);
  EXPECT_GT(s.stats.lp_solves, 0);
}

}  // namespace
}  // namespace mfd::ilp
