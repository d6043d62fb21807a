// Differential tests: the sparse revised-simplex engine against the dense
// two-phase simplex oracle (tests/oracle), which shares no code with it.
//
// Randomized LPs — mixed bound shapes (fixed, negative, one-sided),
// degenerate and empty rows, infeasible and unbounded instances — must get
// the same status and objective from both backends, and a warm-started
// re-solve after appending a cut must agree with a cold solve of the same
// strengthened model. Randomized ILPs must match an exhaustive oracle that
// enumerates every integer assignment and solves the continuous remainder
// with the dense simplex. Path-scale models (60-150 rows shaped like the
// test-path ILP) repeat the LP comparisons where the basis inverse fills
// in, rows swap and the periodic refactorization runs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver.hpp"
#include "oracle/dense_simplex.hpp"

namespace mfd::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double objective_tol(double reference) {
  return 1e-5 * (1.0 + std::abs(reference));
}

// A small random model. Bound shapes are deliberately adversarial: fixed
// variables, negative lower bounds, narrow ranges, and (continuous-only)
// infinite upper bounds that admit unbounded instances. Rows are sparse,
// occasionally empty or duplicated (degenerate).
Model random_model(Rng& rng, bool integer_vars) {
  const int n = rng.uniform_int(1, 8);
  const int m = rng.uniform_int(0, 6);
  Model model;
  for (int v = 0; v < n; ++v) {
    if (integer_vars && rng.flip(0.6)) {
      if (rng.flip(0.5)) {
        model.add_binary();
      } else {
        const int lower = rng.uniform_int(-2, 1);
        model.add_variable(VarType::kInteger, lower,
                           lower + rng.uniform_int(0, 3));
      }
      continue;
    }
    const double lower = rng.uniform(-4.0, 2.0);
    double upper;
    switch (rng.index(5)) {
      case 0:
        upper = lower;  // fixed
        break;
      case 1:
        upper = lower + rng.uniform(0.0, 0.5);  // narrow
        break;
      case 2:
        upper = integer_vars ? lower + rng.uniform(0.5, 6.0) : kInf;
        break;
      default:
        upper = lower + rng.uniform(0.5, 6.0);
        break;
    }
    model.add_continuous(lower, upper);
  }
  LinearExpr last_row;
  for (int c = 0; c < m; ++c) {
    LinearExpr expr;
    if (c > 0 && rng.flip(0.1)) {
      expr = last_row;  // duplicated row: degenerate basis territory
    } else {
      for (int v = 0; v < n; ++v) {
        if (rng.flip(0.6)) expr.add(v, rng.uniform(-3.0, 3.0));
      }
    }
    last_row = expr;
    const Sense sense = static_cast<Sense>(rng.index(3));
    model.add_constraint(std::move(expr), sense, rng.uniform(-4.0, 4.0));
  }
  LinearExpr objective;
  for (int v = 0; v < n; ++v) {
    if (rng.flip(0.8)) objective.add(v, rng.uniform(-2.0, 2.0));
  }
  objective.add_constant(rng.uniform(-1.0, 1.0));
  model.set_objective(std::move(objective), rng.flip(0.5));
  return model;
}

TEST(IlpDifferentialTest, RandomLpsMatchDenseOracle) {
  Rng rng(20240817);
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (int instance = 0; instance < 140; ++instance) {
    const Model model = random_model(rng, /*integer_vars=*/false);
    const LpResult oracle = solve_lp_dense(model);
    const LpResult revised = solve_lp(model);
    ASSERT_NE(revised.status, LpStatus::kIterationLimit)
        << "instance " << instance;
    ASSERT_EQ(revised.status, oracle.status) << "instance " << instance;
    switch (oracle.status) {
      case LpStatus::kOptimal:
        ++optimal;
        EXPECT_NEAR(revised.objective, oracle.objective,
                    objective_tol(oracle.objective))
            << "instance " << instance;
        EXPECT_FALSE(revised.basis.empty());
        break;
      case LpStatus::kInfeasible:
        ++infeasible;
        break;
      case LpStatus::kUnbounded:
        ++unbounded;
        break;
      default:
        break;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GE(optimal, 30);
  EXPECT_GE(infeasible, 20);
  EXPECT_GE(unbounded, 5);
}

// The ILP oracle: fixes the integer variables to every assignment within
// their bounds in turn, solves the continuous remainder with the dense
// simplex, and keeps the best optimum; only status (kOptimal or
// kInfeasible) and objective are set. It shares no code with
// branch-and-bound. random_model() gives integer variables at most four
// values and continuous ones finite bounds, so the enumeration is small and
// no remainder is unbounded.
Solution solve_exhaustively(const Model& model) {
  const auto n = static_cast<std::size_t>(model.variable_count());
  std::vector<double> lower(n);
  std::vector<double> upper(n);
  std::vector<VarId> integers;
  for (VarId v = 0; v < model.variable_count(); ++v) {
    const Variable& var = model.variable(v);
    lower[static_cast<std::size_t>(v)] = var.lower;
    upper[static_cast<std::size_t>(v)] = var.upper;
    if (var.type == VarType::kContinuous) continue;
    integers.push_back(v);
    lower[static_cast<std::size_t>(v)] = std::ceil(var.lower);
    upper[static_cast<std::size_t>(v)] = std::ceil(var.lower);
  }
  const double orient = model.minimize() ? 1.0 : -1.0;
  Solution best;
  for (;;) {
    const LpResult lp = solve_lp_dense(model, lower, upper);
    if (lp.status == LpStatus::kOptimal &&
        (best.status != SolveStatus::kOptimal ||
         orient * lp.objective < orient * best.objective)) {
      best.status = SolveStatus::kOptimal;
      best.objective = lp.objective;
    }
    // Next assignment, odometer order; done once every digit wrapped.
    std::size_t digit = 0;
    for (; digit < integers.size(); ++digit) {
      const VarId v = integers[digit];
      double& value = lower[static_cast<std::size_t>(v)];
      value = value + 1.0 <= std::floor(model.variable(v).upper)
                  ? value + 1.0
                  : std::ceil(model.variable(v).lower);
      upper[static_cast<std::size_t>(v)] = value;
      if (value != std::ceil(model.variable(v).lower)) break;
    }
    if (digit == integers.size()) return best;
  }
}

TEST(IlpDifferentialTest, RandomIlpsMatchDenseOracle) {
  Rng rng(911);
  int optimal = 0;
  for (int instance = 0; instance < 80; ++instance) {
    const Model model = random_model(rng, /*integer_vars=*/true);
    const Solution oracle = solve_exhaustively(model);
    const Solution revised = solve_ilp(model);
    ASSERT_EQ(revised.status, oracle.status) << "instance " << instance;
    if (oracle.status == SolveStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(revised.objective, oracle.objective,
                  objective_tol(oracle.objective))
          << "instance " << instance;
      EXPECT_TRUE(model.feasible(revised.values, 1e-5))
          << "instance " << instance;
    }
  }
  EXPECT_GE(optimal, 25);
}

TEST(IlpDifferentialTest, WarmStartAfterCutMatchesColdStart) {
  Rng rng(7);
  int warmed = 0;
  SolveStats stats;
  // The generator is adversarial (many infeasible/unbounded instances), so
  // draw until enough optimal first solves have exercised the warm path.
  for (int instance = 0; instance < 600 && warmed < 30; ++instance) {
    Model model = random_model(rng, /*integer_vars=*/false);
    LpEngine engine(model);
    const LpResult first = engine.solve();
    if (first.status != LpStatus::kOptimal) continue;

    // A random cut through the optimum: binding or violating about half the
    // time, so the warm re-solve actually exercises the repair phase.
    LinearExpr cut;
    double at_optimum = 0.0;
    for (int v = 0; v < model.variable_count(); ++v) {
      if (!rng.flip(0.5)) continue;
      const double coeff = rng.uniform(-2.0, 2.0);
      cut.add(v, coeff);
      at_optimum += coeff * first.values[static_cast<std::size_t>(v)];
    }
    const Constraint constraint{cut, Sense::kLessEqual,
                                at_optimum + rng.uniform(-1.0, 1.0)};
    engine.add_constraint(constraint);
    const LpResult warm = engine.solve({}, {}, &first.basis);
    const LpResult cold = engine.solve();
    ASSERT_EQ(warm.status, cold.status) << "instance " << instance;
    if (warm.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  objective_tol(cold.objective))
          << "instance " << instance;
    }

    // The dense oracle on the strengthened model must agree with both.
    model.add_constraint(constraint.expr, constraint.sense, constraint.rhs);
    const LpResult oracle = solve_lp_dense(model);
    ASSERT_EQ(warm.status, oracle.status) << "instance " << instance;
    if (oracle.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, oracle.objective,
                  objective_tol(oracle.objective))
          << "instance " << instance;
    }
    ++warmed;
    stats += engine.stats();
  }
  EXPECT_GE(warmed, 30);
  // One attempt is counted per solve that received a warm basis, and the
  // vast majority must adopt it successfully.
  EXPECT_GE(stats.warm_start_attempts, 30);
  EXPECT_GE(stats.warm_start_hits, 1);
}

// A random model shaped like the test-path ILP (eqs. (1)-(4)): two paths
// from one corner of a w x h grid to the other, a degree row per node and
// path (+1 per edge, -2 on the node's on-path variable, = 1 at the
// terminals), a cover row per occupied edge, a link row per free edge and
// path, and one symmetry row ordering the paths by their source edge.
// 60-150 rows: large enough for fill-in in the basis inverse, partial-pivot
// row swaps (the -2 and rank coefficients outweigh the unit entries) and
// cold solves past the 64-pivot refactorization. Occupied edges are drawn
// at random, or (`walks`) from two random monotone corner-to-corner walks,
// which two paths can always cover, so the ILP has integral solutions.
Model path_scale_model(Rng& rng, bool walks) {
  // Random occupancy uses the largest grid (about 137 rows, whose cold
  // solves run past 64 pivots); walks occupy fewer edges, so more link rows,
  // and smaller grids keep them within 150 rows.
  const int w = walks ? rng.uniform_int(4, 5) : 6;
  const int h = walks ? rng.uniform_int(4, 5) : 5;
  const int nodes = w * h;
  std::vector<std::pair<int, int>> edges;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) edges.emplace_back(y * w + x, y * w + x + 1);
      if (y + 1 < h) edges.emplace_back(y * w + x, (y + 1) * w + x);
    }
  }
  const int source = 0;
  const int target = nodes - 1;
  constexpr int kPaths = 2;
  std::vector<char> occupied(edges.size(), 0);
  if (walks) {
    for (int walk = 0; walk < 2; ++walk) {
      int x = 0;
      int y = 0;
      while (x + 1 < w || y + 1 < h) {
        const int from = y * w + x;
        if (y + 1 == h || (x + 1 < w && rng.flip(0.5))) {
          ++x;
        } else {
          ++y;
        }
        const auto step = std::make_pair(from, y * w + x);
        for (std::size_t j = 0; j < edges.size(); ++j) {
          if (edges[j] == step && rng.flip(0.7)) occupied[j] = 1;
        }
      }
    }
  } else {
    for (char& o : occupied) o = rng.flip(0.45) ? 1 : 0;
  }

  Model model;
  std::vector<std::vector<VarId>> use(kPaths);
  std::vector<std::vector<VarId>> on(kPaths);
  for (int r = 0; r < kPaths; ++r) {
    for (std::size_t j = 0; j < edges.size(); ++j) {
      use[r].push_back(model.add_binary());
    }
    for (int i = 0; i < nodes; ++i) {
      on[r].push_back(i == source || i == target ? -1 : model.add_binary());
    }
  }
  std::vector<VarId> keep(edges.size(), -1);
  for (std::size_t j = 0; j < edges.size(); ++j) {
    if (!occupied[j]) keep[j] = model.add_binary();
  }

  for (int r = 0; r < kPaths; ++r) {
    for (int i = 0; i < nodes; ++i) {
      LinearExpr degree;
      for (std::size_t j = 0; j < edges.size(); ++j) {
        if (edges[j].first == i || edges[j].second == i) {
          degree.add(use[r][j], 1.0);
        }
      }
      if (i == source || i == target) {
        model.add_constraint(std::move(degree), Sense::kEqual, 1.0);
      } else {
        degree.add(on[r][static_cast<std::size_t>(i)], -2.0);
        model.add_constraint(std::move(degree), Sense::kEqual, 0.0);
      }
    }
  }
  LinearExpr objective;
  for (std::size_t j = 0; j < edges.size(); ++j) {
    if (occupied[j]) {
      LinearExpr cover;
      for (int r = 0; r < kPaths; ++r) cover.add(use[r][j], 1.0);
      model.add_constraint(std::move(cover), Sense::kGreaterEqual, 1.0);
    } else {
      for (int r = 0; r < kPaths; ++r) {
        LinearExpr link;
        link.add(keep[j], 1.0);
        link.add(use[r][j], -1.0);
        model.add_constraint(std::move(link), Sense::kGreaterEqual, 0.0);
      }
      objective.add(keep[j], 1.0);
    }
    for (int r = 0; r < kPaths; ++r) objective.add(use[r][j], 1e-3);
  }
  LinearExpr order;
  double rank = 0.0;
  for (std::size_t j = 0; j < edges.size(); ++j) {
    if (edges[j].first != source) continue;
    order.add(use[0][j], rank);
    order.add(use[1][j], -rank);
    rank += 1.0;
  }
  model.add_constraint(std::move(order), Sense::kLessEqual, 0.0);
  model.set_objective(std::move(objective), /*minimize=*/true);
  return model;
}

// The differential bar at path-ILP scale: cold solves and warm re-solves
// after random cuts against the dense oracle on the same models, and
// branch-and-bound on the revised engine.
TEST(IlpDifferentialTest, PathScaleModelsMatchDenseOracle) {
  Rng rng(20260418);
  SolveStats cold_stats;
  int cold_optimal = 0;
  int warm_solves = 0;
  int integral = 0;
  for (int instance = 0; instance < 12; ++instance) {
    Model model = path_scale_model(rng, /*walks=*/instance % 2 == 0);
    ASSERT_GE(model.constraint_count(), 60) << "instance " << instance;
    ASSERT_LE(model.constraint_count(), 150) << "instance " << instance;

    SolverOptions ilp_options;
    ilp_options.max_nodes = 400;
    ilp_options.absolute_gap = 0.6;
    const Solution solution = solve_ilp(model, ilp_options);
    if (solution.has_solution()) {
      ++integral;
      EXPECT_TRUE(model.feasible(solution.values, 1e-6))
          << "instance " << instance;
    }

    LpEngine engine(model);
    LpResult current = engine.solve();
    cold_stats += engine.stats();
    const LpResult cold_oracle = solve_lp_dense(model);
    ASSERT_EQ(current.status, cold_oracle.status) << "instance " << instance;
    if (current.status != LpStatus::kOptimal) continue;
    ++cold_optimal;
    EXPECT_NEAR(current.objective, cold_oracle.objective,
                objective_tol(cold_oracle.objective))
        << "instance " << instance;

    // Cuts violated by the current optimum force a repair phase on each
    // warm re-solve.
    for (int round = 0; round < 3; ++round) {
      LinearExpr cut;
      double at_optimum = 0.0;
      for (int v = 0; v < model.variable_count(); ++v) {
        if (!rng.flip(0.15)) continue;
        const double coeff = rng.flip(0.5) ? 1.0 : -1.0;
        cut.add(v, coeff);
        at_optimum += coeff * current.values[static_cast<std::size_t>(v)];
      }
      const Constraint constraint{cut, Sense::kLessEqual, at_optimum - 0.5};
      engine.add_constraint(constraint);
      model.add_constraint(constraint.expr, constraint.sense,
                           constraint.rhs);
      const LpResult warm = engine.solve({}, {}, &current.basis);
      ++warm_solves;
      // A cold solve resets the basis inverse; the same warm basis again
      // then reuses the factorization cached for it, which must reproduce
      // the warm solve bit for bit.
      const LpResult cold = engine.solve();
      ASSERT_EQ(cold.status, warm.status)
          << "instance " << instance << " round " << round;
      if (warm.status == LpStatus::kOptimal) {
        EXPECT_NEAR(cold.objective, warm.objective,
                    objective_tol(warm.objective))
            << "instance " << instance << " round " << round;
      }
      const LpResult again = engine.solve({}, {}, &current.basis);
      EXPECT_EQ(again.status, warm.status);
      EXPECT_EQ(again.iterations, warm.iterations);
      EXPECT_EQ(again.objective, warm.objective);
      EXPECT_EQ(again.values, warm.values);
      const LpResult oracle = solve_lp_dense(model);
      ASSERT_EQ(warm.status, oracle.status)
          << "instance " << instance << " round " << round;
      if (warm.status != LpStatus::kOptimal) break;
      EXPECT_NEAR(warm.objective, oracle.objective,
                  objective_tol(oracle.objective))
          << "instance " << instance << " round " << round;
      current = warm;
    }
  }
  EXPECT_GE(cold_optimal, 10);
  EXPECT_GE(warm_solves, 20);
  EXPECT_GE(integral, 3);
  // Cold solves start from the slack basis and load no warm basis, so every
  // refactorization they count is the periodic one at 64 pivots (or a
  // tiny-pivot rescue).
  EXPECT_EQ(cold_stats.warm_start_attempts, 0);
  EXPECT_GE(cold_stats.refactorizations, 3);
}

}  // namespace
}  // namespace mfd::ilp
