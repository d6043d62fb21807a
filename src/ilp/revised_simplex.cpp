#include "ilp/revised_simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mfd::ilp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Feasibility and optimality tolerance of the pricing, the ratio test and
// presolve.
constexpr double kTol = 1e-7;

// Nonzero sets are bitsets: one bit per row or column index, 64 per word.
using Word = std::uint64_t;
constexpr int kWordBits = 64;

Word bit_of(int index) { return Word{1} << (index % kWordBits); }

// Row `row` of a row-major array with `stride` elements per row.
template <typename T>
T* row_of(std::vector<T>& array, int row, int stride) {
  return array.data() +
         static_cast<std::size_t>(row) * static_cast<std::size_t>(stride);
}

// Calls f(index) for every set bit of words[0..count), ascending.
template <typename F>
void for_each_bit(const Word* words, int count, F&& f) {
  for (int w = 0; w < count; ++w) {
    for (Word bits = words[w]; bits != 0; bits &= bits - 1) {
      f(w * kWordBits + std::countr_zero(bits));
    }
  }
}

// Calls f(index) for every set bit above `index`, ascending.
template <typename F>
void for_each_bit_above(const Word* words, int count, int index, F&& f) {
  const int first = index / kWordBits;
  for (int w = first; w < count; ++w) {
    Word bits = words[w];
    if (w == first) bits &= ~((Word{2} << (index % kWordBits)) - 1);
    for (; bits != 0; bits &= bits - 1) {
      f(w * kWordBits + std::countr_zero(bits));
    }
  }
}

}  // namespace

// The simplex's working state. The engine owns one and keeps its arrays
// across solves; they are resized only when a cut adds a row.
//
// Sparse kernels. B^-1 (binv_) and, inside factorize(), the basis matrix W
// (work_) are m x m arrays whose entries outside their nonzero sets are
// exact zeros. Factorization, the pivot update, x_B and the duals visit
// only the entries inside the sets and do, for each of them, exactly the
// floating-point operations of a dense sweep over the whole array, in that
// sweep's order: a sum stays a left-to-right sum in ascending index and is
// never reassociated. An operation is skipped only when an operand is an
// exact 0.0, where the dense sweep would have left the same value
// (x - f * 0 == x; 0 + 0 * y is zero): at most the sign of an exact zero
// can differ. No comparison can see that sign, and nothing divides by a
// value that can be zero (pivots are checked against 1e-12, ratio-test
// rates against tol), so pivots, node counts and plans are those of the
// dense sweeps. Operands are finite: nonbasic_value() never returns an
// infinite bound.
class RevisedSolve {
 public:
  LpResult run(LpEngine& engine, const std::vector<double>& lower_override,
               const std::vector<double>& upper_override, const Basis* warm) {
    e_ = &engine;
    n_ = engine.structural_;
    m_ = engine.rows_;
    cols_ = n_ + m_;
    lay_out_square_arrays();
    build_bounds(lower_override, upper_override);

    LpResult result;
    ++e_->stats_.lp_solves;

    // An attempt is any solve that received a warm basis, even one presolve
    // answers outright; a hit requires actually adopting the basis.
    const bool have_warm = warm != nullptr && !warm->empty();
    if (have_warm) ++e_->stats_.warm_start_attempts;

    if (!presolve()) {
      result.status = LpStatus::kInfeasible;
      return result;
    }

    if (have_warm && load_warm_basis(*warm)) {
      ++e_->stats_.warm_start_hits;
    } else {
      load_slack_basis();
    }

    result.status = optimize(result.iterations);
    if (result.status == LpStatus::kOptimal) {
      extract(result);
    }
    return result;
  }

 private:
  // A fresh factorization: B^-1 of the basis `basic`, its row permutation
  // and nonzero sets, and the entries inside the sets in storage order.
  struct Factorization {
    std::vector<int> basic;
    std::vector<int> binv_row;
    std::vector<Word> nz;
    std::vector<double> values;
    std::uint64_t last_use = 0;
  };
  static constexpr std::size_t kCachedFactorizations = 8;

  // ---- setup -----------------------------------------------------------

  // Sizes the m x m arrays and their nonzero sets for the current row count.
  // Between solves of an unchanged model they keep their contents (the sets
  // say what to clear); a cut appended since the last solve re-lays them out
  // as zeros and empties the factorization cache.
  void lay_out_square_arrays() {
    if (layout_rows_ == m_) return;
    layout_rows_ = m_;
    words_ = (m_ + kWordBits - 1) / kWordBits;
    const std::size_t rows = static_cast<std::size_t>(m_);
    binv_.assign(rows * rows, 0.0);
    work_.assign(rows * rows, 0.0);
    binv_nz_.assign(rows * static_cast<std::size_t>(words_), 0);
    work_row_nz_.assign(binv_nz_.size(), 0);
    work_col_nz_.assign(binv_nz_.size(), 0);
    binv_row_.resize(rows);
    binv_pos_.resize(rows);
    cache_.clear();
    list_.resize(rows);
    w_list_.resize(rows);
    mask_.resize(static_cast<std::size_t>(words_));
  }

  void build_bounds(const std::vector<double>& lower_override,
                    const std::vector<double>& upper_override) {
    lower_.resize(static_cast<std::size_t>(cols_));
    upper_.resize(static_cast<std::size_t>(cols_));
    for (int j = 0; j < n_; ++j) {
      lower_[static_cast<std::size_t>(j)] =
          lower_override.empty() ? e_->base_lower_[static_cast<std::size_t>(j)]
                                 : lower_override[static_cast<std::size_t>(j)];
      upper_[static_cast<std::size_t>(j)] =
          upper_override.empty() ? e_->base_upper_[static_cast<std::size_t>(j)]
                                 : upper_override[static_cast<std::size_t>(j)];
    }
    for (int i = 0; i < m_; ++i) {
      lower_[static_cast<std::size_t>(n_ + i)] =
          e_->slack_lower_[static_cast<std::size_t>(i)];
      upper_[static_cast<std::size_t>(n_ + i)] =
          e_->slack_upper_[static_cast<std::size_t>(i)];
    }
  }

  // Lightweight presolve on the effective bounds: bound-conflict and
  // fixed-column detection, empty/singleton-row handling, and activity-based
  // row infeasibility/redundancy analysis. Tightenings derived from
  // singleton rows are exact implications, so applying them never changes
  // the feasible region. Returns false when the LP is proven infeasible.
  bool presolve() {
    SolveStats& stats = e_->stats_;
    for (int j = 0; j < n_; ++j) {
      const double l = lower_[static_cast<std::size_t>(j)];
      const double u = upper_[static_cast<std::size_t>(j)];
      if (l > u + kTol) return false;
      if (u - l <= kTol) ++stats.presolve_fixed_columns;
    }

    // Structural entry count per row (for empty/singleton classification)
    // and activity bounds, accumulated column-wise.
    row_entries_.assign(static_cast<std::size_t>(m_), 0);
    row_single_.assign(static_cast<std::size_t>(m_), SparseEntry{-1, 0.0});
    act_min_.assign(static_cast<std::size_t>(m_), 0.0);
    act_max_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double l = lower_[static_cast<std::size_t>(j)];
      const double u = upper_[static_cast<std::size_t>(j)];
      for (const SparseEntry& entry : e_->matrix_.column(j)) {
        const std::size_t i = static_cast<std::size_t>(entry.row);
        ++row_entries_[i];
        row_single_[i] = {j, entry.value};
        const double lo = entry.value >= 0.0 ? entry.value * l
                                             : entry.value * u;
        const double hi = entry.value >= 0.0 ? entry.value * u
                                             : entry.value * l;
        act_min_[i] += lo;
        act_max_[i] += hi;
      }
    }

    for (int i = 0; i < m_; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      const double b = e_->rhs_[si];
      // The row reads a.x + s = b with s in [sl, su], so a.x must land in
      // [b - su, b - sl].
      const double need_lo = b - e_->slack_upper_[si];
      const double need_hi = b - e_->slack_lower_[si];
      if (row_entries_[si] == 0) {
        // Empty constraint row: satisfied by the slack alone or infeasible.
        if (need_lo > kTol || need_hi < -kTol) return false;
        ++stats.presolve_redundant_rows;
        continue;
      }
      if (act_min_[si] > need_hi + kTol || act_max_[si] < need_lo - kTol) {
        return false;  // activity bounds prove the row unsatisfiable
      }
      if (act_min_[si] >= need_lo - kTol && act_max_[si] <= need_hi + kTol) {
        ++stats.presolve_redundant_rows;
      }
      if (row_entries_[si] == 1) {
        // Singleton row a*x + s = b: implied bounds on x, applied exactly.
        const int j = row_single_[si].row >= 0 ? row_single_[si].row : -1;
        const double a = row_single_[si].value;
        if (j < 0 || a == 0.0) continue;
        double implied_lo = a > 0.0 ? need_lo / a : need_hi / a;
        double implied_hi = a > 0.0 ? need_hi / a : need_lo / a;
        double& l = lower_[static_cast<std::size_t>(j)];
        double& u = upper_[static_cast<std::size_t>(j)];
        bool tightened = false;
        if (implied_lo > l + kTol) {
          l = implied_lo;
          tightened = true;
        }
        if (implied_hi < u - kTol) {
          u = implied_hi;
          tightened = true;
        }
        if (tightened) ++stats.presolve_bound_tightenings;
        if (l > u + kTol) return false;
      }
    }
    return true;
  }

  // Nonbasic resting value of column j: its finite bound, or 0 for a free
  // column ("superbasic at zero").
  [[nodiscard]] double nonbasic_value(int j) const {
    const double l = lower_[static_cast<std::size_t>(j)];
    const double u = upper_[static_cast<std::size_t>(j)];
    if (status_[static_cast<std::size_t>(j)] == VarStatus::kAtUpper) {
      return u < kInf ? u : (l > -kInf ? l : 0.0);
    }
    return l > -kInf ? l : (u < kInf ? u : 0.0);
  }

  void load_slack_basis() {
    status_.assign(static_cast<std::size_t>(cols_), VarStatus::kAtLower);
    for (int j = 0; j < n_; ++j) {
      if (lower_[static_cast<std::size_t>(j)] <= -kInf &&
          upper_[static_cast<std::size_t>(j)] < kInf) {
        status_[static_cast<std::size_t>(j)] = VarStatus::kAtUpper;
      }
    }
    basic_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      basic_[static_cast<std::size_t>(i)] = n_ + i;
      status_[static_cast<std::size_t>(n_ + i)] = VarStatus::kBasic;
    }
    // Slack columns are unit vectors: the basis inverse is the identity.
    reset_inverse();
  }

  // Adopts a snapshot taken on this engine (possibly before rows were
  // appended): missing rows get their slack basic, statuses are validated
  // and the inverse refactorized. Returns false when the snapshot is
  // incompatible or its basis matrix is singular.
  bool load_warm_basis(const Basis& warm) {
    if (static_cast<int>(warm.basic.size()) > m_ ||
        static_cast<int>(warm.status.size()) > cols_) {
      return false;
    }
    status_.assign(static_cast<std::size_t>(cols_), VarStatus::kAtLower);
    std::copy(warm.status.begin(), warm.status.end(), status_.begin());
    basic_.assign(static_cast<std::size_t>(m_), -1);
    in_basis_.assign(static_cast<std::size_t>(cols_), 0);
    for (std::size_t i = 0; i < warm.basic.size(); ++i) {
      const int col = warm.basic[i];
      if (col < 0 || col >= cols_ ||
          in_basis_[static_cast<std::size_t>(col)]) {
        return false;
      }
      in_basis_[static_cast<std::size_t>(col)] = 1;
      basic_[i] = col;
    }
    for (int i = static_cast<int>(warm.basic.size()); i < m_; ++i) {
      const int slack = n_ + i;
      if (in_basis_[static_cast<std::size_t>(slack)]) return false;
      in_basis_[static_cast<std::size_t>(slack)] = 1;
      basic_[static_cast<std::size_t>(i)] = slack;
    }
    // Normalize statuses against the basic set and the current bounds.
    for (int j = 0; j < cols_; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      if (in_basis_[sj]) {
        status_[sj] = VarStatus::kBasic;
      } else if (status_[sj] == VarStatus::kBasic) {
        status_[sj] = VarStatus::kAtLower;
      }
      if (status_[sj] == VarStatus::kAtUpper &&
          upper_[sj] >= kInf) {
        status_[sj] = VarStatus::kAtLower;
      }
    }
    return refactorize();
  }

  // ---- basis inverse ----------------------------------------------------

  // Row i of B^-1 (basis position i) and its nonzero set. Storage rows are
  // mapped to basis positions through binv_row_, which refactorize() sets
  // from its row permutation.
  double* binv_row(int i) {
    return row_of(binv_, binv_row_[static_cast<std::size_t>(i)], m_);
  }
  Word* binv_nz(int i) {
    return row_of(binv_nz_, binv_row_[static_cast<std::size_t>(i)], words_);
  }

  // Calls f on every entry of B^-1 inside the nonzero sets, storage row by
  // storage row: the order a cached factorization keeps its values in.
  template <typename F>
  void for_each_inverse_entry(F&& f) {
    for (int s = 0; s < m_; ++s) {
      double* row = row_of(binv_, s, m_);
      for_each_bit(row_of(binv_nz_, s, words_), words_,
                   [&](int k) { f(row[k]); });
    }
  }

  // Zeroes B^-1: only the entries the nonzero sets cover can be nonzero.
  void clear_inverse() {
    for_each_inverse_entry([](double& entry) { entry = 0.0; });
    std::fill(binv_nz_.begin(), binv_nz_.end(), Word{0});
  }

  // B^-1 = I, basis position i in storage row i.
  void reset_inverse() {
    clear_inverse();
    for (int s = 0; s < m_; ++s) {
      row_of(binv_, s, m_)[s] = 1.0;
      row_of(binv_nz_, s, words_)[s / kWordBits] = bit_of(s);
      binv_row_[static_cast<std::size_t>(s)] = s;
    }
  }

  // Rebuilds B^-1 for the basis in basic_. A fresh factorization depends
  // only on basic_ and the constraint rows, so one of the last
  // kCachedFactorizations is reused bit for bit when basic_ matches it:
  // sibling branch-and-bound nodes load the same parent basis. Appending a
  // row changes the layout and empties the cache. Returns false on a
  // (numerically) singular basis.
  bool refactorize() {
    ++e_->stats_.refactorizations;
    for (Factorization& cached : cache_) {
      if (cached.basic == basic_) {
        cached.last_use = ++use_clock_;
        restore(cached);
        return true;
      }
    }
    if (!factorize()) return false;
    remember();
    return true;
  }

  void restore(const Factorization& cached) {
    clear_inverse();
    binv_nz_ = cached.nz;
    binv_row_ = cached.binv_row;
    const double* value = cached.values.data();
    for_each_inverse_entry([&](double& entry) { entry = *value++; });
  }

  // Stores the factorization just computed, replacing the least recently
  // used one when the cache is full.
  void remember() {
    Factorization* slot = nullptr;
    if (cache_.size() < kCachedFactorizations) {
      slot = &cache_.emplace_back();
    } else {
      slot = &*std::min_element(cache_.begin(), cache_.end(),
                                [](const Factorization& a,
                                   const Factorization& b) {
                                  return a.last_use < b.last_use;
                                });
    }
    slot->last_use = ++use_clock_;
    slot->basic = basic_;
    slot->binv_row = binv_row_;
    slot->nz = binv_nz_;
    std::size_t nonzeros = 0;
    for (const Word w : binv_nz_) {
      nonzeros += static_cast<std::size_t>(std::popcount(w));
    }
    slot->values.resize(nonzeros);
    double* value = slot->values.data();
    for_each_inverse_entry([&](double& entry) { *value++ = entry; });
  }

  // Gauss-Jordan elimination with partial pivoting on [W | I], W the basis
  // matrix scattered from the sparse basis columns. Rows are permuted
  // logically (binv_row_/binv_pos_ map positions to storage rows) and the
  // elimination runs over the row and column nonzero sets of W. A column
  // left of the current one is never read again, so its entries (exact
  // zeros after elimination, one on the diagonal) are neither computed nor
  // tracked.
  bool factorize() {
    for (int r = 0; r < m_; ++r) {
      double* w = row_of(work_, r, m_);
      for_each_bit(row_of(work_row_nz_, r, words_), words_,
                   [w](int c) { w[c] = 0.0; });
    }
    std::fill(work_row_nz_.begin(), work_row_nz_.end(), Word{0});
    std::fill(work_col_nz_.begin(), work_col_nz_.end(), Word{0});
    auto place = [&](int r, int c, double value) {
      row_of(work_, r, m_)[c] = value;
      row_of(work_row_nz_, r, words_)[c / kWordBits] |= bit_of(c);
      row_of(work_col_nz_, c, words_)[r / kWordBits] |= bit_of(r);
    };
    for (int i = 0; i < m_; ++i) {
      const int col = basic_[static_cast<std::size_t>(i)];
      if (col < n_) {
        for (const SparseEntry& entry : e_->matrix_.column(col)) {
          place(entry.row, i, entry.value);
        }
      } else {
        place(col - n_, i, 1.0);
      }
    }
    reset_inverse();
    for (int s = 0; s < m_; ++s) binv_pos_[static_cast<std::size_t>(s)] = s;

    for (int col = 0; col < m_; ++col) {
      // The pivot a dense scan down column col from position col picks: the
      // largest |w|, the first in position order on ties.
      int pivot = binv_row_[static_cast<std::size_t>(col)];
      double largest = std::abs(row_of(work_, pivot, m_)[col]);
      for_each_bit(row_of(work_col_nz_, col, words_), words_, [&](int r) {
        const int position = binv_pos_[static_cast<std::size_t>(r)];
        if (position <= col) return;
        const double magnitude = std::abs(row_of(work_, r, m_)[col]);
        if (magnitude > largest ||
            (magnitude == largest &&
             position < binv_pos_[static_cast<std::size_t>(pivot)])) {
          largest = magnitude;
          pivot = r;
        }
      });
      if (largest <= 1e-12) return false;
      const int from = binv_pos_[static_cast<std::size_t>(pivot)];
      const int displaced = binv_row_[static_cast<std::size_t>(col)];
      binv_row_[static_cast<std::size_t>(col)] = pivot;
      binv_pos_[static_cast<std::size_t>(pivot)] = col;
      binv_row_[static_cast<std::size_t>(from)] = displaced;
      binv_pos_[static_cast<std::size_t>(displaced)] = from;

      // Divide the pivot row by the diagonal, listing its nonzeros for the
      // rows it updates.
      double* w_pivot = row_of(work_, pivot, m_);
      const Word* w_pivot_nz = row_of(work_row_nz_, pivot, words_);
      double* inv_pivot = row_of(binv_, pivot, m_);
      const Word* inv_pivot_nz = row_of(binv_nz_, pivot, words_);
      const double diag = w_pivot[col];
      int w_count = 0;
      for_each_bit_above(w_pivot_nz, words_, col, [&](int c) {
        w_pivot[c] /= diag;
        w_list_[static_cast<std::size_t>(w_count++)] = c;
      });
      const int inv_count = divide_row(inv_pivot, inv_pivot_nz, diag);

      for_each_bit(row_of(work_col_nz_, col, words_), words_, [&](int r) {
        if (r == pivot) return;
        double* w_row = row_of(work_, r, m_);
        const double factor = w_row[col];
        if (factor == 0.0) return;
        Word* w_row_nz = row_of(work_row_nz_, r, words_);
        for (int t = 0; t < w_count; ++t) {
          const int c = w_list_[static_cast<std::size_t>(t)];
          Word& word = w_row_nz[c / kWordBits];
          if ((word & bit_of(c)) == 0) {  // fill-in
            word |= bit_of(c);
            row_of(work_col_nz_, c, words_)[r / kWordBits] |= bit_of(r);
          }
          w_row[c] -= factor * w_pivot[c];
        }
        subtract_row(row_of(binv_, r, m_), row_of(binv_nz_, r, words_), factor,
                     inv_pivot, inv_pivot_nz, inv_count);
      });
    }
    return true;
  }

  // Divides a row of B^-1 by `divisor` and lists its nonzero positions in
  // list_ for subtract_row(); returns how many there are.
  int divide_row(double* row, const Word* nz, double divisor) {
    int count = 0;
    for_each_bit(nz, words_, [&](int k) {
      row[k] /= divisor;
      list_[static_cast<std::size_t>(count++)] = k;
    });
    return count;
  }

  // row -= factor * pivot_row over the `count` positions divide_row() listed
  // for the pivot row. The row's nonzero set takes the union of the two.
  void subtract_row(double* row, Word* nz, double factor,
                    const double* pivot_row, const Word* pivot_nz,
                    int count) {
    for (int w = 0; w < words_; ++w) nz[w] |= pivot_nz[w];
    for (int t = 0; t < count; ++t) {
      const int k = list_[static_cast<std::size_t>(t)];
      row[k] -= factor * pivot_row[k];
    }
  }

  // ---- per-iteration quantities ---------------------------------------

  // beta = B^-1 (rhs - N x_N), the values of the basic variables. Each entry
  // is a dot product in ascending k over the positions where both the row
  // of B^-1 and the right-hand side may be nonzero.
  void compute_beta() {
    effective_.assign(e_->rhs_.begin(), e_->rhs_.end());
    for (int j = 0; j < cols_; ++j) {
      if (status_[static_cast<std::size_t>(j)] == VarStatus::kBasic) continue;
      const double value = nonbasic_value(j);
      if (value == 0.0) continue;
      if (j < n_) {
        for (const SparseEntry& entry : e_->matrix_.column(j)) {
          effective_[static_cast<std::size_t>(entry.row)] -=
              entry.value * value;
        }
      } else {
        effective_[static_cast<std::size_t>(j - n_)] -= value;
      }
    }
    std::fill(mask_.begin(), mask_.end(), Word{0});
    for (int k = 0; k < m_; ++k) {
      if (effective_[static_cast<std::size_t>(k)] != 0.0) {
        mask_[static_cast<std::size_t>(k / kWordBits)] |= bit_of(k);
      }
    }
    beta_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      const double* row = binv_row(i);
      const Word* nz = binv_nz(i);
      double sum = 0.0;
      for (int w = 0; w < words_; ++w) {
        for (Word bits = nz[w] & mask_[static_cast<std::size_t>(w)];
             bits != 0; bits &= bits - 1) {
          const int k = w * kWordBits + std::countr_zero(bits);
          sum += row[k] * effective_[static_cast<std::size_t>(k)];
        }
      }
      beta_[static_cast<std::size_t>(i)] = sum;
    }
  }

  // Total primal infeasibility of the basic values, filling the phase-1
  // gradient (-1 below lower, +1 above upper) as a side effect.
  double basic_infeasibility() {
    phase1_grad_.assign(static_cast<std::size_t>(m_), 0.0);
    double total = 0.0;
    for (int i = 0; i < m_; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      const int col = basic_[si];
      const double value = beta_[si];
      const double l = lower_[static_cast<std::size_t>(col)];
      const double u = upper_[static_cast<std::size_t>(col)];
      if (value < l - kTol) {
        phase1_grad_[si] = -1.0;
        total += l - value;
      } else if (value > u + kTol) {
        phase1_grad_[si] = 1.0;
        total += value - u;
      }
    }
    return total;
  }

  // y = c_B B^-1 for the active phase's costs, accumulated row by row in
  // ascending i.
  void compute_duals(bool repair_phase) {
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      double cb;
      if (repair_phase) {
        cb = phase1_grad_[static_cast<std::size_t>(i)];
      } else {
        const int col = basic_[static_cast<std::size_t>(i)];
        cb = col < n_ ? e_->cost_[static_cast<std::size_t>(col)] : 0.0;
      }
      if (cb == 0.0) continue;
      const double* row = binv_row(i);
      for_each_bit(binv_nz(i), words_, [&](int k) {
        y_[static_cast<std::size_t>(k)] += cb * row[k];
      });
    }
  }

  // Reduced cost of nonbasic column j under the active phase: sparse dot
  // against the column's nonzero list (the pricing step the sparse
  // representation exists for).
  [[nodiscard]] double reduced_cost(int j, bool repair_phase) const {
    double d = repair_phase || j >= n_
                   ? 0.0
                   : e_->cost_[static_cast<std::size_t>(j)];
    if (j < n_) {
      for (const SparseEntry& entry : e_->matrix_.column(j)) {
        d -= y_[static_cast<std::size_t>(entry.row)] * entry.value;
      }
    } else {
      d -= y_[static_cast<std::size_t>(j - n_)];
    }
    return d;
  }

  // alpha = B^-1 a_j (FTRAN) from the sparse column. Unlike the other
  // kernels it reads whole columns of B^-1, zeros included: a structural
  // column has about three entries, and this branch-free sweep measured
  // about twice as fast as testing each row's nonzero set.
  void ftran(int j) {
    alpha_.assign(static_cast<std::size_t>(m_), 0.0);
    if (j < n_) {
      for (const SparseEntry& entry : e_->matrix_.column(j)) {
        const double value = entry.value;
        for (int i = 0; i < m_; ++i) {
          alpha_[static_cast<std::size_t>(i)] += binv_row(i)[entry.row] * value;
        }
      }
    } else {
      const int row = j - n_;
      for (int i = 0; i < m_; ++i) {
        alpha_[static_cast<std::size_t>(i)] = binv_row(i)[row];
      }
    }
  }

  // ---- the simplex loop ------------------------------------------------

  LpStatus optimize(int& iterations_out) {
    const int iteration_limit = 200 * (m_ + cols_) + 2000;
    const int bland_threshold = 10 * (m_ + cols_) + 200;
    int stall = 0;
    bool repaired = false;

    for (int iteration = 0; iteration < iteration_limit; ++iteration) {
      ++iterations_out;
      if ((iteration & 63) == 0 && stop_requested(e_->options_.control)) {
        return LpStatus::kIterationLimit;
      }
      if ((iteration & 63) == 63) {
        if (!refactorize()) return LpStatus::kIterationLimit;
      }

      compute_beta();
      const double infeasibility = basic_infeasibility();
      const bool repair_phase = infeasibility > kTol;
      if (repair_phase && !repaired) {
        repaired = true;
        ++e_->stats_.repair_phases;
      }
      compute_duals(repair_phase);

      const bool use_bland = stall > bland_threshold;
      int entering = -1;
      int direction = 0;  // +1 rises from lower, -1 falls from upper
      double best_score = kTol;
      for (int j = 0; j < cols_; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        if (status_[sj] == VarStatus::kBasic) continue;
        const double l = lower_[sj];
        const double u = upper_[sj];
        if (u - l <= kTol) continue;  // fixed: never enters
        const double d = reduced_cost(j, repair_phase);
        double score = 0.0;
        int dir = 0;
        const bool free_column = l <= -kInf && u >= kInf;
        if (status_[sj] == VarStatus::kAtLower || free_column) {
          if (d < -kTol) {
            score = -d;
            dir = 1;
          } else if (free_column && d > kTol) {
            score = d;
            dir = -1;
          }
        } else if (status_[sj] == VarStatus::kAtUpper && d > kTol) {
          score = d;
          dir = -1;
        }
        if (dir == 0) continue;
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
      if (entering == -1) {
        // Phase-optimal: either proven infeasible (repair failed) or done.
        return repair_phase ? LpStatus::kInfeasible : LpStatus::kOptimal;
      }
      ++e_->stats_.pivots;  // an iteration that moves (bound flip or pivot)

      ftran(entering);

      // Ratio test. The entering column moves t >= 0 from its bound in
      // `direction`; basic i changes at rate g = -direction * alpha_i.
      // Feasible basics block at the bound they approach; infeasible basics
      // (repair phase) block at the bound they violate — where they become
      // feasible and leave the basis.
      const std::size_t se = static_cast<std::size_t>(entering);
      double max_step =
          (lower_[se] > -kInf && upper_[se] < kInf) ? upper_[se] - lower_[se]
                                                    : kInf;
      int leaving_row = -1;
      bool leaving_at_upper = false;
      for (int i = 0; i < m_; ++i) {
        const std::size_t si = static_cast<std::size_t>(i);
        const double g =
            -static_cast<double>(direction) * alpha_[si];
        if (std::abs(g) <= kTol) continue;
        const int col = basic_[si];
        const double value = beta_[si];
        const double l = lower_[static_cast<std::size_t>(col)];
        const double u = upper_[static_cast<std::size_t>(col)];
        double limit = kInf;
        bool at_upper = false;
        if (value < l - kTol) {
          // Infeasible below: blocks only while rising towards l.
          if (g > 0.0) {
            limit = (l - value) / g;
            at_upper = false;
          }
        } else if (value > u + kTol) {
          if (g < 0.0) {
            limit = (value - u) / (-g);
            at_upper = true;
          }
        } else if (g < 0.0 && l > -kInf) {
          limit = (value - l) / (-g);
          at_upper = false;
        } else if (g > 0.0 && u < kInf) {
          limit = (u - value) / g;
          at_upper = true;
        }
        if (limit >= kInf) continue;
        if (limit < max_step - kTol ||
            (limit < max_step + kTol && leaving_row == -1)) {
          max_step = std::max(limit, 0.0);
          leaving_row = i;
          leaving_at_upper = at_upper;
        }
      }

      if (max_step >= kInf) {
        // No blocking event: unbounded in phase 2. In the repair phase this
        // cannot happen for an improving direction (some violated basic
        // moves towards its bound and blocks); treat a numerical escape as
        // an iteration-limit failure rather than cycling forever.
        return repair_phase ? LpStatus::kIterationLimit
                            : LpStatus::kUnbounded;
      }

      if (best_score * max_step > kTol) {
        stall = 0;
      } else {
        ++stall;
      }

      if (leaving_row == -1) {
        // Bound flip: the entering column crosses its whole range.
        status_[se] =
            direction > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        continue;
      }

      // Pivot: entering replaces basic_[leaving_row]; product-form update
      // of the inverse.
      const int leaving_col = basic_[static_cast<std::size_t>(leaving_row)];
      status_[static_cast<std::size_t>(leaving_col)] =
          leaving_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      basic_[static_cast<std::size_t>(leaving_row)] = entering;
      status_[se] = VarStatus::kBasic;

      const double pivot = alpha_[static_cast<std::size_t>(leaving_row)];
      if (std::abs(pivot) <= 1e-12) {
        // Numerically hopeless pivot: rebuild and retry from scratch state.
        if (!refactorize()) return LpStatus::kIterationLimit;
        continue;
      }
      double* pivot_row = binv_row(leaving_row);
      const Word* pivot_nz = binv_nz(leaving_row);
      const int count = divide_row(pivot_row, pivot_nz, pivot);
      for (int i = 0; i < m_; ++i) {
        if (i == leaving_row) continue;
        const double factor = alpha_[static_cast<std::size_t>(i)];
        if (factor == 0.0) continue;
        subtract_row(binv_row(i), binv_nz(i), factor, pivot_row, pivot_nz,
                     count);
      }
    }
    return LpStatus::kIterationLimit;
  }

  // Reads the optimum. beta_ is current: the final iteration computed it
  // and then found no entering column.
  void extract(LpResult& result) {
    basic_row_.assign(static_cast<std::size_t>(cols_), -1);
    for (int i = 0; i < m_; ++i) {
      basic_row_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] =
          i;
    }
    result.values.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const int row = basic_row_[static_cast<std::size_t>(j)];
      result.values[static_cast<std::size_t>(j)] =
          row >= 0 ? beta_[static_cast<std::size_t>(row)] : nonbasic_value(j);
    }
    double objective = e_->objective_constant_;
    for (int j = 0; j < n_; ++j) {
      const double c = e_->cost_[static_cast<std::size_t>(j)];
      if (c == 0.0) continue;
      objective +=
          e_->orientation_ * c * result.values[static_cast<std::size_t>(j)];
    }
    result.objective = objective;
    result.basis.status.assign(status_.begin(), status_.end());
    result.basis.basic.assign(basic_.begin(), basic_.end());
  }

  LpEngine* e_ = nullptr;
  int n_ = 0;
  int m_ = 0;
  int cols_ = 0;

  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<VarStatus> status_;
  std::vector<int> basic_;
  std::vector<int> basic_row_;
  std::vector<char> in_basis_;
  std::vector<double> beta_;
  std::vector<double> effective_;
  std::vector<double> y_;
  std::vector<double> alpha_;
  std::vector<double> phase1_grad_;
  std::vector<int> row_entries_;
  std::vector<SparseEntry> row_single_;
  std::vector<double> act_min_;
  std::vector<double> act_max_;

  std::vector<Factorization> cache_;  // at most kCachedFactorizations
  std::uint64_t use_clock_ = 0;

  // The m x m arrays (laid out for layout_rows_ rows) and their nonzero
  // sets, words_ words per row.
  int layout_rows_ = -1;
  int words_ = 0;
  std::vector<double> binv_;       // B^-1 by storage row
  std::vector<Word> binv_nz_;      // per storage row: columns maybe nonzero
  std::vector<int> binv_row_;      // basis position -> storage row
  std::vector<int> binv_pos_;      // storage row -> basis position
  std::vector<double> work_;       // W under elimination, by constraint row
  std::vector<Word> work_row_nz_;  // per row of W: columns maybe nonzero
  std::vector<Word> work_col_nz_;  // per column of W: rows maybe nonzero
  std::vector<Word> mask_;         // right-hand side nonzeros (compute_beta)
  std::vector<int> list_;          // pivot row nonzeros of B^-1
  std::vector<int> w_list_;        // pivot row nonzeros of W
};

LpEngine::LpEngine(const Model& model, const LpOptions& options)
    : options_(options),
      structural_(model.variable_count()),
      matrix_(model.variable_count()) {
  orientation_ = model.minimize() ? 1.0 : -1.0;

  base_lower_.resize(static_cast<std::size_t>(structural_));
  base_upper_.resize(static_cast<std::size_t>(structural_));
  for (VarId v = 0; v < structural_; ++v) {
    const Variable& var = model.variable(v);
    base_lower_[static_cast<std::size_t>(v)] = var.lower;
    base_upper_[static_cast<std::size_t>(v)] = var.upper;
  }

  set_objective(model.objective(), model.minimize());
  for (const Constraint& c : model.constraints()) add_constraint(c);
}

LpEngine::~LpEngine() = default;
LpEngine::LpEngine(LpEngine&&) noexcept = default;
LpEngine& LpEngine::operator=(LpEngine&&) noexcept = default;

void LpEngine::add_constraint(const Constraint& constraint) {
  // Lazy cuts may arrive unnormalized (duplicate variables, embedded
  // constants); mirror Model::add_constraint's canonical form.
  LinearExpr expr = constraint.expr;
  expr.normalize();
  matrix_.add_row(expr);
  rhs_.push_back(constraint.rhs - expr.constant());
  switch (constraint.sense) {
    case Sense::kLessEqual:
      slack_lower_.push_back(0.0);
      slack_upper_.push_back(kInf);
      break;
    case Sense::kEqual:
      slack_lower_.push_back(0.0);
      slack_upper_.push_back(0.0);
      break;
    case Sense::kGreaterEqual:
      slack_lower_.push_back(-kInf);
      slack_upper_.push_back(0.0);
      break;
  }
  ++rows_;
}

void LpEngine::set_objective(const LinearExpr& objective, bool minimize) {
  orientation_ = minimize ? 1.0 : -1.0;
  cost_.assign(static_cast<std::size_t>(structural_), 0.0);
  for (const LinearTerm& t : objective.terms()) {
    MFD_REQUIRE(t.var >= 0 && t.var < structural_,
                "LpEngine::set_objective(): variable out of range");
    cost_[static_cast<std::size_t>(t.var)] += orientation_ * t.coeff;
  }
  objective_constant_ = objective.constant();
}

LpResult LpEngine::solve(const std::vector<double>& lower,
                         const std::vector<double>& upper, const Basis* warm) {
  MFD_REQUIRE(lower.empty() ||
                  lower.size() == static_cast<std::size_t>(structural_),
              "LpEngine::solve(): lower override size mismatch");
  MFD_REQUIRE(upper.empty() ||
                  upper.size() == static_cast<std::size_t>(structural_),
              "LpEngine::solve(): upper override size mismatch");
  if (!solver_) solver_ = std::make_unique<RevisedSolve>();
  return solver_->run(*this, lower, upper, warm);
}

LpResult solve_lp(const Model& model, const std::vector<double>& lower,
                  const std::vector<double>& upper, const LpOptions& options) {
  LpEngine engine(model, options);
  LpResult result = engine.solve(lower, upper);
  if (options.stats != nullptr) *options.stats += engine.stats();
  return result;
}

}  // namespace mfd::ilp
