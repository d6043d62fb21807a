// Branch-and-bound 0-1 / mixed-integer solver over the simplex relaxation.
//
// Supports lazy constraints: after each integral candidate, a caller-supplied
// callback may return violated constraints (here: the loop-elimination cuts
// of [16] used by the DFT path formulation); the candidate is then rejected,
// the cuts are added globally, and the node is re-solved.
#pragma once

#include <functional>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace mfd::ilp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kTimeLimit,
  kNodeLimit,
  /// A RunControl deadline/cancellation fired; best incumbent returned.
  kStopped,
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective in the model's orientation; meaningful for kOptimal and for
  /// limit statuses when `values` is non-empty (best incumbent found).
  double objective = 0.0;
  std::vector<double> values;
  int nodes_explored = 0;
  int lazy_constraints_added = 0;
  /// Wall time inside the search (monotonic clock), excluding model copy
  /// and engine construction.
  double runtime_seconds = 0.0;
  /// Engine counters accumulated over every LP solved by this call.
  SolveStats stats;

  [[nodiscard]] bool has_solution() const { return !values.empty(); }

  /// Rounded value of a variable in an integral solution.
  [[nodiscard]] bool binary_value(VarId v) const {
    MFD_REQUIRE(has_solution() &&
                    static_cast<std::size_t>(v) < values.size(),
                "binary_value(): no solution or variable out of range");
    return values[static_cast<std::size_t>(v)] > 0.5;
  }
};

struct SolverOptions {
  double time_limit_seconds = 120.0;
  int max_nodes = 200000;
  /// Nodes whose LP bound is within this absolute distance of the incumbent
  /// are pruned. Raising it above 0 turns the solver into an approximate one
  /// that still guarantees an incumbent within the gap of the optimum —
  /// useful when objectives are near-integral and proving the last fraction
  /// of optimality dominates runtime.
  double absolute_gap = 1e-9;
  /// Optional cooperative deadline/cancellation, polled at every node (and
  /// propagated into the simplex iterations). Borrowed, may be null.
  const RunControl* control = nullptr;
};

/// Called with an integral candidate assignment; returns constraints violated
/// by it (empty = accept the candidate).
using LazyConstraintCallback =
    std::function<std::vector<Constraint>(const std::vector<double>&)>;

/// Solves the model to optimality (or until a limit fires, in which case the
/// best incumbent found so far is returned with the corresponding status).
Solution solve_ilp(const Model& model, const SolverOptions& options = {},
                   const LazyConstraintCallback& lazy = nullptr);

}  // namespace mfd::ilp
