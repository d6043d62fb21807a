#include "ilp/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "common/trace.hpp"
#include "ilp/revised_simplex.hpp"

namespace mfd::ilp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// An integer variable within this distance of an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  double bound = -kInf;  // LP bound in minimize orientation
  int depth = 0;
  /// Parent's optimal basis: the node's relaxation warm-starts from it
  /// (shared between siblings, which differ only in one bound).
  std::shared_ptr<const Basis> warm;
};

struct NodeOrder {
  // Best-first: smaller bound first; deeper first on ties (dives to find
  // incumbents quickly).
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.depth < b.depth;
  }
};

// Index of the fractional integer variable to branch on, or -1 when the
// assignment is integral. Highest branch priority wins; most fractional
// breaks ties within a priority class.
int fractional_variable(const Model& model, const std::vector<double>& values,
                        double tol) {
  int best = -1;
  int best_priority = 0;
  double best_frac = 0.0;
  for (VarId v = 0; v < model.variable_count(); ++v) {
    const Variable& var = model.variable(v);
    if (var.type == VarType::kContinuous) continue;
    const double value = values[static_cast<std::size_t>(v)];
    const double frac = std::abs(value - std::round(value));
    if (frac <= tol) continue;
    if (best == -1 || var.branch_priority > best_priority ||
        (var.branch_priority == best_priority && frac > best_frac)) {
      best = v;
      best_priority = var.branch_priority;
      best_frac = frac;
    }
  }
  return best;
}

void round_integers(const Model& model, std::vector<double>& values) {
  for (VarId v = 0; v < model.variable_count(); ++v) {
    if (model.variable(v).type == VarType::kContinuous) continue;
    values[static_cast<std::size_t>(v)] =
        std::round(values[static_cast<std::size_t>(v)]);
  }
}

}  // namespace

Solution solve_ilp(const Model& model, const SolverOptions& options,
                   const LazyConstraintCallback& lazy) {
  // The engine is built once and mutated in place by lazy cuts; building it
  // does not count towards runtime_seconds. The run control reaches the
  // simplex iterations too, so long LP solves also stop.
  LpEngine engine(model, LpOptions{.control = options.control});

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const double orient = model.minimize() ? 1.0 : -1.0;

  Solution result;
  auto finish = [&](SolveStatus status) -> Solution& {
    result.status = status;
    result.runtime_seconds = elapsed();
    result.stats = engine.stats();
    if (Tracer* tracer = tracer_of(options.control)) {
      trace_counter(tracer, "ilp.nodes", result.nodes_explored);
      trace_counter(tracer, "ilp.lazy_cuts", result.lazy_constraints_added);
      trace_counter(tracer, "ilp.pivots", result.stats.pivots);
      trace_counter(tracer, "ilp.refactorizations",
                    result.stats.refactorizations);
      trace_counter(tracer, "ilp.warm_start_attempts",
                    result.stats.warm_start_attempts);
      trace_counter(tracer, "ilp.warm_start_hits",
                    result.stats.warm_start_hits);
      trace_counter(tracer, "ilp.presolve_fixed_columns",
                    result.stats.presolve_fixed_columns);
      trace_counter(tracer, "ilp.presolve_redundant_rows",
                    result.stats.presolve_redundant_rows);
      trace_counter(tracer, "ilp.presolve_bound_tightenings",
                    result.stats.presolve_bound_tightenings);
      trace_counter(tracer, "ilp.lp_solves", result.stats.lp_solves);
      trace_counter(tracer, "ilp.repair_phases", result.stats.repair_phases);
    }
    return result;
  };

  if (stop_requested(options.control)) return finish(SolveStatus::kStopped);

  std::vector<double> root_lower(
      static_cast<std::size_t>(model.variable_count()));
  std::vector<double> root_upper(
      static_cast<std::size_t>(model.variable_count()));
  for (VarId v = 0; v < model.variable_count(); ++v) {
    root_lower[static_cast<std::size_t>(v)] = model.variable(v).lower;
    root_upper[static_cast<std::size_t>(v)] = model.variable(v).upper;
  }

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;

  // Solve the root relaxation first to classify infeasible/unbounded models.
  {
    const LpResult root = engine.solve(root_lower, root_upper);
    ++result.nodes_explored;
    if (stop_requested(options.control)) return finish(SolveStatus::kStopped);
    if (root.status == LpStatus::kInfeasible ||
        root.status == LpStatus::kIterationLimit) {
      return finish(SolveStatus::kInfeasible);
    }
    if (root.status == LpStatus::kUnbounded) {
      // With integer variables the IP could still be bounded, but every model
      // in this library is bounded by construction; report honestly.
      return finish(SolveStatus::kUnbounded);
    }
    Node node{root_lower, root_upper, orient * root.objective, 0,
              root.basis.empty()
                  ? nullptr
                  : std::make_shared<const Basis>(root.basis)};
    open.push(std::move(node));
  }

  double incumbent_key = kInf;  // minimize orientation

  while (!open.empty()) {
    if (stop_requested(options.control)) return finish(SolveStatus::kStopped);
    if (elapsed() > options.time_limit_seconds) {
      return finish(SolveStatus::kTimeLimit);
    }
    if (result.nodes_explored >= options.max_nodes) {
      return finish(SolveStatus::kNodeLimit);
    }

    Node node = open.top();
    open.pop();
    if (node.bound >= incumbent_key - options.absolute_gap) continue;

    const LpResult lp = engine.solve(node.lower, node.upper, node.warm.get());
    ++result.nodes_explored;
    if (lp.status != LpStatus::kOptimal) continue;  // infeasible subtree
    const double key = orient * lp.objective;
    if (key >= incumbent_key - options.absolute_gap) continue;

    const int branch_var =
        fractional_variable(model, lp.values, kIntegralityTol);
    if (branch_var == -1) {
      // Integral candidate. Give the lazy callback a chance to reject it.
      std::vector<double> candidate = lp.values;
      round_integers(model, candidate);
      if (lazy) {
        std::vector<Constraint> cuts = lazy(candidate);
        if (!cuts.empty()) {
          for (const Constraint& cut : cuts) {
            engine.add_constraint(cut);
            ++result.lazy_constraints_added;
          }
          // Re-solve the same node against the strengthened model; the
          // engine extends this node's basis with the new rows' slacks.
          node.bound = key;
          if (!lp.basis.empty()) {
            node.warm = std::make_shared<const Basis>(lp.basis);
          }
          open.push(std::move(node));
          continue;
        }
      }
      incumbent_key = key;
      result.values = std::move(candidate);
      result.objective = lp.objective;
      continue;
    }

    // Branch on the fractional variable; both children resume from this
    // node's optimal basis.
    const std::shared_ptr<const Basis> warm =
        lp.basis.empty() ? node.warm
                         : std::make_shared<const Basis>(lp.basis);
    const double value = lp.values[static_cast<std::size_t>(branch_var)];
    Node down = node;
    down.upper[static_cast<std::size_t>(branch_var)] = std::floor(value);
    down.bound = key;
    down.depth = node.depth + 1;
    down.warm = warm;
    Node up = std::move(node);
    up.lower[static_cast<std::size_t>(branch_var)] = std::ceil(value);
    up.bound = key;
    up.depth = down.depth;
    up.warm = warm;
    open.push(std::move(down));
    open.push(std::move(up));
  }

  return finish(result.has_solution() ? SolveStatus::kOptimal
                                      : SolveStatus::kInfeasible);
}

}  // namespace mfd::ilp
