#include "oracle/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mfd::ilp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-7;

enum class ColumnStatus : char { kBasic, kAtLower, kAtUpper };

// Dense tableau-free simplex working state. Columns are laid out as
// [structural | slacks | artificials]; all variables are shifted so their
// lower bound is zero and live in [0, range].
class SimplexSolver {
 public:
  SimplexSolver(const Model& model, const std::vector<double>& lower,
                const std::vector<double>& upper, const LpOptions& options)
      : options_(options) {
    build(model, lower, upper);
  }

  LpResult solve(const Model& model) {
    LpResult result;
    if (infeasible_bounds_) {
      result.status = LpStatus::kInfeasible;
      return result;
    }

    // Phase 1: minimize the sum of artificials from the all-artificial basis.
    std::vector<double> phase1_cost(num_columns(), 0.0);
    for (int j = artificial_begin_; j < num_columns(); ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    const LpStatus phase1 = optimize(phase1_cost);
    if (phase1 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    if (objective_value(phase1_cost) > 1e-6) {
      result.status = LpStatus::kInfeasible;
      result.iterations = iterations_;
      return result;
    }

    // Fix artificials at zero for phase 2.
    for (int j = artificial_begin_; j < num_columns(); ++j) {
      range_[static_cast<std::size_t>(j)] = 0.0;
      if (status_[static_cast<std::size_t>(j)] == ColumnStatus::kAtUpper) {
        status_[static_cast<std::size_t>(j)] = ColumnStatus::kAtLower;
      }
    }

    const LpStatus phase2 = optimize(cost_);
    result.iterations = iterations_;
    if (phase2 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      return result;
    }
    if (phase2 == LpStatus::kUnbounded) {
      result.status = LpStatus::kUnbounded;
      return result;
    }

    result.status = LpStatus::kOptimal;
    result.values = extract_values(model);
    double objective = model.objective().constant();
    for (const LinearTerm& t : model.objective().terms()) {
      objective += t.coeff * result.values[static_cast<std::size_t>(t.var)];
    }
    result.objective = objective;
    return result;
  }

 private:
  [[nodiscard]] int num_columns() const {
    return static_cast<int>(cost_.size());
  }

  double& a(int row, int col) {
    return matrix_[static_cast<std::size_t>(row) *
                       static_cast<std::size_t>(num_columns_cached_) +
                   static_cast<std::size_t>(col)];
  }
  [[nodiscard]] double a(int row, int col) const {
    return matrix_[static_cast<std::size_t>(row) *
                       static_cast<std::size_t>(num_columns_cached_) +
                   static_cast<std::size_t>(col)];
  }

  void build(const Model& model, const std::vector<double>& lower_override,
             const std::vector<double>& upper_override) {
    const int n = model.variable_count();
    rows_ = model.constraint_count();
    const double sign = model.minimize() ? 1.0 : -1.0;

    shift_.assign(static_cast<std::size_t>(n), 0.0);
    std::vector<double> lower(static_cast<std::size_t>(n));
    std::vector<double> upper(static_cast<std::size_t>(n));
    for (VarId v = 0; v < n; ++v) {
      const Variable& var = model.variable(v);
      lower[static_cast<std::size_t>(v)] =
          lower_override.empty() ? var.lower
                                 : lower_override[static_cast<std::size_t>(v)];
      upper[static_cast<std::size_t>(v)] =
          upper_override.empty() ? var.upper
                                 : upper_override[static_cast<std::size_t>(v)];
      if (lower[static_cast<std::size_t>(v)] >
          upper[static_cast<std::size_t>(v)] + kTol) {
        infeasible_bounds_ = true;
        return;
      }
    }

    // Column layout: n structural, then one slack per inequality row, then
    // one artificial per row.
    int slack_count = 0;
    for (const Constraint& c : model.constraints()) {
      if (c.sense != Sense::kEqual) ++slack_count;
    }
    slack_begin_ = n;
    artificial_begin_ = n + slack_count;
    const int total = artificial_begin_ + rows_;
    num_columns_cached_ = total;

    matrix_.assign(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(total),
        0.0);
    cost_.assign(static_cast<std::size_t>(total), 0.0);
    range_.assign(static_cast<std::size_t>(total), kInf);
    rhs_.assign(static_cast<std::size_t>(rows_), 0.0);

    for (VarId v = 0; v < n; ++v) {
      shift_[static_cast<std::size_t>(v)] = lower[static_cast<std::size_t>(v)];
      range_[static_cast<std::size_t>(v)] =
          upper[static_cast<std::size_t>(v)] -
          lower[static_cast<std::size_t>(v)];
    }
    for (const LinearTerm& t : model.objective().terms()) {
      cost_[static_cast<std::size_t>(t.var)] += sign * t.coeff;
    }

    int slack = slack_begin_;
    for (int i = 0; i < rows_; ++i) {
      const Constraint& c =
          model.constraints()[static_cast<std::size_t>(i)];
      double rhs = c.rhs;
      for (const LinearTerm& t : c.expr.terms()) {
        a(i, t.var) += t.coeff;
        rhs -= t.coeff * shift_[static_cast<std::size_t>(t.var)];
      }
      if (c.sense == Sense::kLessEqual) {
        a(i, slack) = 1.0;
        ++slack;
      } else if (c.sense == Sense::kGreaterEqual) {
        a(i, slack) = -1.0;
        ++slack;
      }
      rhs_[static_cast<std::size_t>(i)] = rhs;
    }

    // Normalize rows to non-negative rhs, then install artificials as the
    // initial basis.
    for (int i = 0; i < rows_; ++i) {
      if (rhs_[static_cast<std::size_t>(i)] < 0.0) {
        rhs_[static_cast<std::size_t>(i)] = -rhs_[static_cast<std::size_t>(i)];
        for (int j = 0; j < artificial_begin_; ++j) a(i, j) = -a(i, j);
      }
      a(i, artificial_begin_ + i) = 1.0;
    }

    status_.assign(static_cast<std::size_t>(total), ColumnStatus::kAtLower);
    basis_.resize(static_cast<std::size_t>(rows_));
    for (int i = 0; i < rows_; ++i) {
      basis_[static_cast<std::size_t>(i)] = artificial_begin_ + i;
      status_[static_cast<std::size_t>(artificial_begin_ + i)] =
          ColumnStatus::kBasic;
    }
    binv_.assign(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(rows_),
        0.0);
    for (int i = 0; i < rows_; ++i) {
      binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(rows_) +
            static_cast<std::size_t>(i)] = 1.0;
    }
  }

  [[nodiscard]] double binv(int i, int j) const {
    return binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(rows_) +
                 static_cast<std::size_t>(j)];
  }
  double& binv(int i, int j) {
    return binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(rows_) +
                 static_cast<std::size_t>(j)];
  }

  // Current value of column j (shifted space).
  [[nodiscard]] double column_value(int j,
                                    const std::vector<double>& beta) const {
    switch (status_[static_cast<std::size_t>(j)]) {
      case ColumnStatus::kAtLower:
        return 0.0;
      case ColumnStatus::kAtUpper:
        return range_[static_cast<std::size_t>(j)];
      case ColumnStatus::kBasic:
        for (int i = 0; i < rows_; ++i) {
          if (basis_[static_cast<std::size_t>(i)] == j) {
            return beta[static_cast<std::size_t>(i)];
          }
        }
        MFD_ASSERT(false, "basic column missing from basis");
    }
    return 0.0;
  }

  // beta = B^-1 * (rhs - sum of at-upper columns at their ranges).
  [[nodiscard]] std::vector<double> basic_values() const {
    std::vector<double> effective = rhs_;
    for (int j = 0; j < num_columns(); ++j) {
      if (status_[static_cast<std::size_t>(j)] != ColumnStatus::kAtUpper) {
        continue;
      }
      const double value = range_[static_cast<std::size_t>(j)];
      if (value == 0.0) continue;
      for (int i = 0; i < rows_; ++i) {
        effective[static_cast<std::size_t>(i)] -= a(i, j) * value;
      }
    }
    std::vector<double> beta(static_cast<std::size_t>(rows_), 0.0);
    for (int i = 0; i < rows_; ++i) {
      double sum = 0.0;
      for (int k = 0; k < rows_; ++k) {
        sum += binv(i, k) * effective[static_cast<std::size_t>(k)];
      }
      beta[static_cast<std::size_t>(i)] = sum;
    }
    return beta;
  }

  [[nodiscard]] double objective_value(
      const std::vector<double>& cost) const {
    const std::vector<double> beta = basic_values();
    double total = 0.0;
    for (int j = 0; j < num_columns(); ++j) {
      const double c = cost[static_cast<std::size_t>(j)];
      if (c == 0.0) continue;
      total += c * column_value(j, beta);
    }
    return total;
  }

  void refactorize() {
    // Rebuild B^-1 from the basis columns via Gauss-Jordan with partial
    // pivoting.
    std::vector<double> work(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(rows_),
        0.0);
    for (int i = 0; i < rows_; ++i) {
      const int col = basis_[static_cast<std::size_t>(i)];
      for (int r = 0; r < rows_; ++r) {
        work[static_cast<std::size_t>(r) * static_cast<std::size_t>(rows_) +
             static_cast<std::size_t>(i)] = a(r, col);
      }
    }
    std::vector<double> inverse(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(rows_),
        0.0);
    for (int i = 0; i < rows_; ++i) {
      inverse[static_cast<std::size_t>(i) * static_cast<std::size_t>(rows_) +
              static_cast<std::size_t>(i)] = 1.0;
    }
    auto w = [&](int r, int c) -> double& {
      return work[static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(rows_) +
                  static_cast<std::size_t>(c)];
    };
    auto inv = [&](int r, int c) -> double& {
      return inverse[static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(rows_) +
                     static_cast<std::size_t>(c)];
    };
    for (int col = 0; col < rows_; ++col) {
      int pivot = col;
      for (int r = col + 1; r < rows_; ++r) {
        if (std::abs(w(r, col)) > std::abs(w(pivot, col))) pivot = r;
      }
      MFD_ASSERT(std::abs(w(pivot, col)) > 1e-12,
                 "simplex refactorization: singular basis");
      if (pivot != col) {
        for (int c = 0; c < rows_; ++c) {
          std::swap(w(pivot, c), w(col, c));
          std::swap(inv(pivot, c), inv(col, c));
        }
      }
      const double diag = w(col, col);
      for (int c = 0; c < rows_; ++c) {
        w(col, c) /= diag;
        inv(col, c) /= diag;
      }
      for (int r = 0; r < rows_; ++r) {
        if (r == col) continue;
        const double factor = w(r, col);
        if (factor == 0.0) continue;
        for (int c = 0; c < rows_; ++c) {
          w(r, c) -= factor * w(col, c);
          inv(r, c) -= factor * inv(col, c);
        }
      }
    }
    binv_ = std::move(inverse);
  }

  LpStatus optimize(const std::vector<double>& cost) {
    const int total = num_columns();
    const int iteration_limit = 200 * (rows_ + total) + 2000;
    const int bland_threshold = 10 * (rows_ + total) + 200;
    int stall = 0;

    for (int local_iter = 0; local_iter < iteration_limit; ++local_iter) {
      ++iterations_;
      if ((local_iter & 63) == 0 && stop_requested(options_.control)) {
        return LpStatus::kIterationLimit;
      }
      if ((local_iter & 63) == 63) refactorize();

      const std::vector<double> beta = basic_values();

      // Pricing: y = c_B B^-1, d_j = c_j - y a_j.
      std::vector<double> y(static_cast<std::size_t>(rows_), 0.0);
      for (int i = 0; i < rows_; ++i) {
        const double cb =
            cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
        if (cb == 0.0) continue;
        for (int k = 0; k < rows_; ++k) {
          y[static_cast<std::size_t>(k)] += cb * binv(i, k);
        }
      }

      const bool use_bland = stall > bland_threshold;
      // Reduced costs for all columns in one row-major sweep (cache friendly).
      reduced_.assign(cost.begin(), cost.end());
      for (int i = 0; i < rows_; ++i) {
        const double yi = y[static_cast<std::size_t>(i)];
        if (yi == 0.0) continue;
        const double* row = &matrix_[static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(total)];
        for (int j = 0; j < total; ++j) {
          reduced_[static_cast<std::size_t>(j)] -= yi * row[j];
        }
      }
      int entering = -1;
      double best_score = kTol;
      int direction = 0;  // +1 entering rises from lower, -1 falls from upper
      for (int j = 0; j < total; ++j) {
        const ColumnStatus st = status_[static_cast<std::size_t>(j)];
        if (st == ColumnStatus::kBasic) continue;
        if (range_[static_cast<std::size_t>(j)] < kTol) continue;
        const double d = reduced_[static_cast<std::size_t>(j)];
        double score = 0.0;
        int dir = 0;
        if (st == ColumnStatus::kAtLower && d < -kTol) {
          score = -d;
          dir = 1;
        } else if (st == ColumnStatus::kAtUpper && d > kTol) {
          score = d;
          dir = -1;
        } else {
          continue;
        }
        if (use_bland) {
          entering = j;
          direction = dir;
          break;
        }
        if (score > best_score) {
          best_score = score;
          entering = j;
          direction = dir;
        }
      }
      if (entering == -1) return LpStatus::kOptimal;

      // Direction through the basis: alpha = B^-1 a_e.
      std::vector<double> column(static_cast<std::size_t>(rows_));
      for (int k = 0; k < rows_; ++k) {
        column[static_cast<std::size_t>(k)] = a(k, entering);
      }
      std::vector<double> alpha(static_cast<std::size_t>(rows_), 0.0);
      for (int i = 0; i < rows_; ++i) {
        double sum = 0.0;
        const double* binv_row =
            &binv_[static_cast<std::size_t>(i) *
                   static_cast<std::size_t>(rows_)];
        for (int k = 0; k < rows_; ++k) {
          sum += binv_row[k] * column[static_cast<std::size_t>(k)];
        }
        alpha[static_cast<std::size_t>(i)] = sum;
      }

      // Ratio test. Basic i moves by -direction*alpha_i per unit step.
      double max_step = range_[static_cast<std::size_t>(entering)];
      int leaving_row = -1;
      bool leaving_at_upper = false;
      for (int i = 0; i < rows_; ++i) {
        const double delta =
            static_cast<double>(direction) * alpha[static_cast<std::size_t>(i)];
        const int basic_col = basis_[static_cast<std::size_t>(i)];
        const double basic_range = range_[static_cast<std::size_t>(basic_col)];
        double limit = kInf;
        bool at_upper = false;
        if (delta > kTol) {
          limit = beta[static_cast<std::size_t>(i)] / delta;
          at_upper = false;
        } else if (delta < -kTol && basic_range < kInf) {
          limit = (basic_range - beta[static_cast<std::size_t>(i)]) / (-delta);
          at_upper = true;
        } else {
          continue;
        }
        if (limit < max_step - kTol ||
            (limit < max_step + kTol && leaving_row == -1)) {
          max_step = std::max(limit, 0.0);
          leaving_row = i;
          leaving_at_upper = at_upper;
        }
      }

      if (max_step == kInf) return LpStatus::kUnbounded;

      // Objective improves by |reduced cost| * step; track stalls cheaply
      // instead of recomputing the objective.
      if (best_score * max_step > kTol) {
        stall = 0;
      } else {
        ++stall;
      }

      if (leaving_row == -1) {
        // Bound flip: entering travels its whole range.
        status_[static_cast<std::size_t>(entering)] =
            direction > 0 ? ColumnStatus::kAtUpper : ColumnStatus::kAtLower;
        continue;
      }

      // Pivot: entering replaces basis_[leaving_row].
      const int leaving_col = basis_[static_cast<std::size_t>(leaving_row)];
      status_[static_cast<std::size_t>(leaving_col)] =
          leaving_at_upper ? ColumnStatus::kAtUpper : ColumnStatus::kAtLower;
      basis_[static_cast<std::size_t>(leaving_row)] = entering;
      status_[static_cast<std::size_t>(entering)] = ColumnStatus::kBasic;

      const double pivot = alpha[static_cast<std::size_t>(leaving_row)];
      MFD_ASSERT(std::abs(pivot) > 1e-12, "simplex pivot too small");
      for (int k = 0; k < rows_; ++k) binv(leaving_row, k) /= pivot;
      for (int i = 0; i < rows_; ++i) {
        if (i == leaving_row) continue;
        const double factor = alpha[static_cast<std::size_t>(i)];
        if (factor == 0.0) continue;
        for (int k = 0; k < rows_; ++k) {
          binv(i, k) -= factor * binv(leaving_row, k);
        }
      }
    }
    return LpStatus::kIterationLimit;
  }

  std::vector<double> extract_values(const Model& model) const {
    const std::vector<double> beta = basic_values();
    std::vector<double> values(
        static_cast<std::size_t>(model.variable_count()), 0.0);
    for (VarId v = 0; v < model.variable_count(); ++v) {
      values[static_cast<std::size_t>(v)] =
          column_value(v, beta) + shift_[static_cast<std::size_t>(v)];
    }
    return values;
  }

  LpOptions options_;
  bool infeasible_bounds_ = false;
  int rows_ = 0;
  int slack_begin_ = 0;
  int artificial_begin_ = 0;
  int num_columns_cached_ = 0;
  int iterations_ = 0;

  std::vector<double> reduced_;  // scratch: reduced costs per column
  std::vector<double> matrix_;   // rows_ x num_columns, row-major
  std::vector<double> cost_;    // phase-2 costs (sign-adjusted)
  std::vector<double> range_;   // upper - lower per column (shifted space)
  std::vector<double> rhs_;
  std::vector<double> shift_;   // lower bound per structural variable
  std::vector<int> basis_;
  std::vector<ColumnStatus> status_;
  std::vector<double> binv_;
};

}  // namespace

LpResult solve_lp_dense(const Model& model, const std::vector<double>& lower,
                        const std::vector<double>& upper,
                        const LpOptions& options) {
  MFD_REQUIRE(lower.empty() ||
                  lower.size() ==
                      static_cast<std::size_t>(model.variable_count()),
              "solve_lp_dense(): lower override size mismatch");
  MFD_REQUIRE(upper.empty() ||
                  upper.size() ==
                      static_cast<std::size_t>(model.variable_count()),
              "solve_lp_dense(): upper override size mismatch");
  SimplexSolver solver(model, lower, upper, options);
  return solver.solve(model);
}

}  // namespace mfd::ilp
