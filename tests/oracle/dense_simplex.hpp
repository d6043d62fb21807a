// Dense two-phase simplex: the differential oracle for the revised engine.
//
// The library's first LP backend, kept for tests only: the same semantics
// as ilp::solve_lp (bounded variables, min or max, bound overrides), but a
// dense row-major constraint matrix, an all-artificial phase 1 and every
// solve from scratch — no warm starts, no presolve, no shared code with
// revised_simplex.cpp. Only test binaries link it.
#pragma once

#include <vector>

#include "ilp/simplex.hpp"

namespace mfd::ilp {

/// Solves the continuous relaxation of `model` from scratch. `lower`/`upper`
/// override the model's variable bounds as in solve_lp(). Only
/// options.control is read.
LpResult solve_lp_dense(const Model& model,
                        const std::vector<double>& lower = {},
                        const std::vector<double>& upper = {},
                        const LpOptions& options = {});

}  // namespace mfd::ilp
