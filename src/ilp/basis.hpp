// Simplex basis snapshots and engine statistics.
//
// A Basis captures the state of a revised-simplex solve — which column sits
// in each basis row and where every nonbasic column rests — so a later solve
// of a *compatible* model (same structural columns, possibly more rows from
// lazy cuts) can resume from it instead of starting phase 1 from scratch.
// Branch-and-bound nodes snapshot their parent's basis, and a node re-solved
// after lazy cuts resumes from its own.
#pragma once

#include <cstdint>
#include <vector>

namespace mfd::ilp {

/// Where a column rests relative to the current basis.
enum class VarStatus : char { kBasic, kAtLower, kAtUpper };

/// A resumable simplex state over the engine's column space (structural
/// variables first, then one slack per row). A basis taken before rows were
/// appended stays usable: the engine extends it with the new rows' slacks.
struct Basis {
  /// One entry per column known at snapshot time.
  std::vector<VarStatus> status;
  /// Column id occupying each basis row.
  std::vector<int> basic;

  /// A snapshot from a zero-row model has no basic entries but still
  /// carries resumable column statuses, so emptiness keys on `status`.
  [[nodiscard]] bool empty() const { return status.empty(); }
};

/// Counters accumulated by the revised-simplex engine across solves. The
/// branch-and-bound solver aggregates them per solve_ilp() call and surfaces
/// them through the Tracer counters (see solver.cpp).
struct SolveStats {
  std::int64_t pivots = 0;
  std::int64_t refactorizations = 0;
  /// Solves that received a warm-start basis / that adopted it successfully.
  std::int64_t warm_start_attempts = 0;
  std::int64_t warm_start_hits = 0;
  /// Presolve reductions observed across solves.
  std::int64_t presolve_fixed_columns = 0;
  std::int64_t presolve_redundant_rows = 0;
  std::int64_t presolve_bound_tightenings = 0;
  /// LP solves run, and how many needed a feasibility-repair phase.
  std::int64_t lp_solves = 0;
  std::int64_t repair_phases = 0;

  SolveStats& operator+=(const SolveStats& other) {
    pivots += other.pivots;
    refactorizations += other.refactorizations;
    warm_start_attempts += other.warm_start_attempts;
    warm_start_hits += other.warm_start_hits;
    presolve_fixed_columns += other.presolve_fixed_columns;
    presolve_redundant_rows += other.presolve_redundant_rows;
    presolve_bound_tightenings += other.presolve_bound_tightenings;
    lp_solves += other.lp_solves;
    repair_phases += other.repair_phases;
    return *this;
  }
};

}  // namespace mfd::ilp
