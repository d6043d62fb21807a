// Incremental LP engine: sparse revised simplex with bounded variables.
//
// An LpEngine is built once from a Model and then *mutated* between solves —
// appending lazy-cut rows, adjusting bounds per solve — so the iterative
// searches above it (branch-and-bound nodes and their lazy-cut re-solves)
// re-solve nearly identical LPs without rebuilding anything. Each solve may
// resume from a prior Basis: the engine refactorizes the basis inverse from
// the sparse basis columns, repairs any bound violations the new
// cuts/bounds introduced with a composite phase-1 (primal simplex on the sum
// of infeasibilities — the "bounded primal with a repair phase" alternative
// to dual simplex), then finishes with the ordinary bounded primal. A cold
// solve is the same loop started from the all-slack basis.
//
// Representation: every row is an equality a·x + s = b with one slack s per
// row whose bounds encode the sense (<=: s in [0,inf); =: s = 0;
// >=: s in (-inf,0]). Columns are [structural | slacks]; the structural part
// lives in a SparseColumns (per-column nonzero lists), slack columns are
// implicit unit vectors. The basis inverse B^-1 is an m x m array with a
// nonzero bitset per row, rebuilt by Gauss-Jordan elimination over row and
// column nonzero sets of the basis matrix and updated in product form
// between periodic refactorizations. The DFT formulation's basis matrices
// hold about two nonzeros per row and B^-1 stays a few percent dense, so
// refactorization, the pivot update, x_B and the duals visit only the
// entries those sets cover; pricing and FTRAN walk column nonzero lists.
// Each kernel does exactly the floating-point operations of a dense sweep,
// in the same order, so results do not depend on the sparsity bookkeeping.
// The working arrays, and a few recent factorizations that sibling
// branch-and-bound nodes reuse, belong to the engine and last across its
// solves.
#pragma once

#include <memory>
#include <vector>

#include "ilp/simplex.hpp"
#include "ilp/sparse.hpp"

namespace mfd::ilp {

class RevisedSolve;

class LpEngine {
 public:
  /// Builds the sparse representation of `model`. The model reference is
  /// not retained; later cuts are added through add_constraint().
  explicit LpEngine(const Model& model, const LpOptions& options = {});
  ~LpEngine();
  LpEngine(LpEngine&&) noexcept;
  LpEngine& operator=(LpEngine&&) noexcept;

  [[nodiscard]] int structural_count() const { return structural_; }
  [[nodiscard]] int row_count() const { return rows_; }
  /// Columns = structural + one slack per row.
  [[nodiscard]] int column_count() const { return structural_ + rows_; }

  /// Appends one constraint row (a lazy cut). Bases snapshotted before the
  /// append remain usable: solve() extends them with the new row's slack.
  void add_constraint(const Constraint& constraint);

  /// Solves with the given bound overrides (empty = the model's bounds; one
  /// entry per structural variable otherwise) resuming from `warm` when
  /// non-null. The result's basis field holds the final basis on kOptimal.
  LpResult solve(const std::vector<double>& lower = {},
                 const std::vector<double>& upper = {},
                 const Basis* warm = nullptr);

  [[nodiscard]] const SolveStats& stats() const { return stats_; }
  SolveStats& stats() { return stats_; }

 private:
  friend class RevisedSolve;

  /// Installs the model's objective; `minimize` matches
  /// Model::set_objective semantics.
  void set_objective(const LinearExpr& objective, bool minimize);

  LpOptions options_;
  int structural_ = 0;
  int rows_ = 0;
  SparseColumns matrix_;            // structural columns only
  std::vector<double> rhs_;         // one per row
  std::vector<double> slack_lower_; // slack bounds encode the row sense
  std::vector<double> slack_upper_;
  std::vector<double> base_lower_;  // model bounds per structural variable
  std::vector<double> base_upper_;
  std::vector<double> cost_;        // minimize-oriented structural costs
  double objective_constant_ = 0.0;
  double orientation_ = 1.0;        // +1 minimize, -1 maximize
  SolveStats stats_;
  // Working arrays of the simplex (basis inverse, factorization, per-
  // iteration vectors), sized on first use and kept for later solves.
  std::unique_ptr<RevisedSolve> solver_;
};

/// Solves the continuous relaxation of `model` on a fresh LpEngine. When
/// `lower`/`upper` are non-empty they override the model's variable bounds;
/// they must then have one entry per variable.
LpResult solve_lp(const Model& model, const std::vector<double>& lower = {},
                  const std::vector<double>& upper = {},
                  const LpOptions& options = {});

}  // namespace mfd::ilp
