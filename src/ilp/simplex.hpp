// LP result and option types of the LP engine (revised_simplex.hpp: a
// sparse revised simplex with bounded variables and warm starts), shared
// with the branch-and-bound solver (solver.hpp).
#pragma once

#include <vector>

#include "common/run_control.hpp"
#include "ilp/basis.hpp"
#include "ilp/model.hpp"

namespace mfd::ilp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  /// Objective in the model's own orientation (min or max).
  double objective = 0.0;
  /// One value per model variable (structural variables only).
  std::vector<double> values;
  int iterations = 0;
  /// Final basis (kOptimal solves only; empty otherwise). Pass it to a
  /// later LpEngine::solve() to resume a compatible solve from here.
  Basis basis;
};

struct LpOptions {
  /// Optional cooperative deadline/cancellation, polled every 64 pivots; a
  /// stop surfaces as kIterationLimit. Borrowed, may be null.
  const RunControl* control = nullptr;
  /// Optional accumulator for engine statistics (pivots, refactorizations,
  /// warm-start and presolve counters). Borrowed, may be null.
  SolveStats* stats = nullptr;
};

}  // namespace mfd::ilp
