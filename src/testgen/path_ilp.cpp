#include "testgen/path_ilp.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "graph/traversal.hpp"
#include "testgen/greedy_paths.hpp"

namespace mfd::testgen {

namespace {

// Small per-edge-use cost: prefers short paths and starves gratuitous cycles
// (which would otherwise be objective-neutral and burn lazy-cut rounds).
// Total distortion stays below one unit edge cost for every model size used
// here.
constexpr double kUseEpsilon = 1e-3;

// Neighborhood::kAuto restricts the candidate edges on grids with more free
// edges than this (see PathPlanOptions::restrict_to_neighborhood).
constexpr int kAutoRestrictThreshold = 28;

struct VarLayout {
  // edge_use[r * edge_count + j] -> e_{j,r}; -1 when the edge is excluded.
  std::vector<ilp::VarId> edge_use;
  // node_on[r * node_count + i] -> n_{i,r} (unused for s, t)
  std::vector<ilp::VarId> node_on;
  // keep[j] -> s_j for free candidate edges, -1 elsewhere
  std::vector<ilp::VarId> keep;
};

struct BuiltModel {
  ilp::Model model;
  VarLayout layout;
};

// Free edges adjacent to the existing chip (occupied node at either end).
std::vector<char> neighborhood_candidates(const arch::Biochip& chip) {
  const graph::Graph& grid = chip.grid().graph();
  std::vector<char> node_occupied(
      static_cast<std::size_t>(grid.node_count()), 0);
  for (const arch::Device& d : chip.devices()) {
    node_occupied[static_cast<std::size_t>(d.node)] = 1;
  }
  for (const arch::Port& p : chip.ports()) {
    node_occupied[static_cast<std::size_t>(p.node)] = 1;
  }
  for (const arch::Valve& v : chip.valves()) {
    const graph::Edge& e = grid.edge(v.edge);
    node_occupied[static_cast<std::size_t>(e.u)] = 1;
    node_occupied[static_cast<std::size_t>(e.v)] = 1;
  }
  std::vector<char> allowed(static_cast<std::size_t>(grid.edge_count()), 0);
  for (graph::EdgeId j = 0; j < grid.edge_count(); ++j) {
    if (chip.edge_occupied(j)) {
      allowed[static_cast<std::size_t>(j)] = 1;
      continue;
    }
    const graph::Edge& e = grid.edge(j);
    if (node_occupied[static_cast<std::size_t>(e.u)] ||
        node_occupied[static_cast<std::size_t>(e.v)]) {
      allowed[static_cast<std::size_t>(j)] = 1;
    }
  }
  return allowed;
}

BuiltModel build_model(const arch::Biochip& chip, int num_paths,
                       graph::NodeId s, graph::NodeId t,
                       const std::vector<char>& edge_allowed,
                       const PathPlanOptions& options) {
  const graph::Graph& grid = chip.grid().graph();
  const int edge_count = grid.edge_count();
  const int node_count = grid.node_count();

  BuiltModel built;
  ilp::Model& m = built.model;
  VarLayout& vars = built.layout;

  vars.edge_use.assign(static_cast<std::size_t>(num_paths) *
                           static_cast<std::size_t>(edge_count),
                       -1);
  vars.node_on.assign(static_cast<std::size_t>(num_paths) *
                          static_cast<std::size_t>(node_count),
                      -1);
  vars.keep.assign(static_cast<std::size_t>(edge_count), -1);

  for (int r = 0; r < num_paths; ++r) {
    for (graph::EdgeId j = 0; j < edge_count; ++j) {
      if (!edge_allowed[static_cast<std::size_t>(j)]) continue;
      vars.edge_use[static_cast<std::size_t>(r * edge_count + j)] =
          m.add_binary("e_" + std::to_string(j) + "_" + std::to_string(r));
    }
    for (graph::NodeId i = 0; i < node_count; ++i) {
      if (i == s || i == t) continue;
      vars.node_on[static_cast<std::size_t>(r * node_count + i)] =
          m.add_binary("n_" + std::to_string(i) + "_" + std::to_string(r));
    }
  }
  for (graph::EdgeId j = 0; j < edge_count; ++j) {
    if (!chip.edge_occupied(j) && edge_allowed[static_cast<std::size_t>(j)]) {
      const ilp::VarId keep = m.add_binary("s_" + std::to_string(j));
      // Branch on structural keep decisions before individual path edges:
      // fixing which channels get added collapses most of the path symmetry.
      m.set_branch_priority(keep, 10);
      vars.keep[static_cast<std::size_t>(j)] = keep;
    }
  }

  auto edge_var = [&](int r, graph::EdgeId j) {
    return vars.edge_use[static_cast<std::size_t>(r * edge_count + j)];
  };

  // (1)-(2): path degree constraints per node and path.
  for (int r = 0; r < num_paths; ++r) {
    for (graph::NodeId i = 0; i < node_count; ++i) {
      ilp::LinearExpr degree;
      bool has_edges = false;
      for (graph::EdgeId j : grid.incident_edges(i)) {
        if (edge_var(r, j) < 0) continue;
        degree.add(edge_var(r, j), 1.0);
        has_edges = true;
      }
      if (i == s || i == t) {
        MFD_REQUIRE(has_edges,
                    "plan_dft_paths(): test port has no candidate edges");
        m.add_constraint(std::move(degree), ilp::Sense::kEqual, 1.0);
      } else if (has_edges) {
        degree.add(vars.node_on[static_cast<std::size_t>(r * node_count + i)],
                   -2.0);
        m.add_constraint(std::move(degree), ilp::Sense::kEqual, 0.0);
      }
    }
  }

  // (3): every original channel on at least one path.
  for (graph::EdgeId j = 0; j < edge_count; ++j) {
    if (!chip.edge_occupied(j)) continue;
    ilp::LinearExpr cover;
    for (int r = 0; r < num_paths; ++r) cover.add(edge_var(r, j), 1.0);
    m.add_constraint(std::move(cover), ilp::Sense::kGreaterEqual, 1.0);
  }

  // (4): link free-edge usage to the keep decision.
  for (graph::EdgeId j = 0; j < edge_count; ++j) {
    const ilp::VarId keep = vars.keep[static_cast<std::size_t>(j)];
    if (keep < 0) continue;
    for (int r = 0; r < num_paths; ++r) {
      ilp::LinearExpr link;
      link.add(keep, 1.0);
      link.add(edge_var(r, j), -1.0);
      m.add_constraint(std::move(link), ilp::Sense::kGreaterEqual, 0.0);
    }
  }

  // Symmetry breaking: paths are interchangeable, which would otherwise
  // multiply the branch-and-bound tree by |P|!. Order consecutive paths by
  // the rank of the edge they take out of the source node (each path uses
  // exactly one source edge by (2)).
  {
    const auto& source_edges = grid.incident_edges(s);
    for (int r = 0; r + 1 < num_paths; ++r) {
      ilp::LinearExpr order;
      for (std::size_t rank = 0; rank < source_edges.size(); ++rank) {
        const graph::EdgeId j = source_edges[rank];
        if (edge_var(r, j) < 0) continue;
        const double weight = static_cast<double>(rank);
        order.add(edge_var(r, j), weight);
        order.add(edge_var(r + 1, j), -weight);
      }
      m.add_constraint(std::move(order), ilp::Sense::kLessEqual, 0.0);
    }
  }

  // No-good cuts: forbid previously enumerated configurations (and their
  // supersets). An empty forbidden set would make the model infeasible,
  // which is correct: a chip needing zero added edges has exactly one
  // minimal configuration.
  for (const auto& forbidden : options.forbidden_added_sets) {
    ilp::LinearExpr cut;
    bool applicable = true;
    for (graph::EdgeId j : forbidden) {
      const ilp::VarId keep = vars.keep[static_cast<std::size_t>(j)];
      if (keep < 0) {
        applicable = false;  // edge outside candidate set: cannot recur
        break;
      }
      cut.add(keep, 1.0);
    }
    if (!applicable) continue;
    m.add_constraint(std::move(cut), ilp::Sense::kLessEqual,
                     static_cast<double>(forbidden.size()) - 1.0);
  }

  // (5): objective.
  ilp::LinearExpr objective;
  for (graph::EdgeId j = 0; j < edge_count; ++j) {
    const ilp::VarId keep = vars.keep[static_cast<std::size_t>(j)];
    if (keep >= 0) objective.add(keep, 1.0);
  }
  for (int r = 0; r < num_paths; ++r) {
    for (graph::EdgeId j = 0; j < edge_count; ++j) {
      if (edge_var(r, j) >= 0) objective.add(edge_var(r, j), kUseEpsilon);
    }
  }
  m.set_objective(std::move(objective));
  return built;
}

// Finds cycles in each path's selected edge set (components not containing
// the source) and returns subtour-elimination cuts for every path index.
std::vector<ilp::Constraint> loop_cuts(const arch::Biochip& chip,
                                       int num_paths, graph::NodeId s,
                                       const VarLayout& vars,
                                       const std::vector<double>& candidate) {
  const graph::Graph& grid = chip.grid().graph();
  const int edge_count = grid.edge_count();
  std::vector<ilp::Constraint> cuts;

  for (int r = 0; r < num_paths; ++r) {
    graph::EdgeMask selected(edge_count, false);
    bool any = false;
    for (graph::EdgeId j = 0; j < edge_count; ++j) {
      const ilp::VarId var =
          vars.edge_use[static_cast<std::size_t>(r * edge_count + j)];
      if (var >= 0 && candidate[static_cast<std::size_t>(var)] > 0.5) {
        selected.set(j, true);
        any = true;
      }
    }
    if (!any) continue;
    const std::vector<int> component =
        graph::connected_components(grid, selected);
    const int s_component = component[static_cast<std::size_t>(s)];

    // Group selected edges by component; any component other than the
    // source's is a cycle that must be eliminated (for every path index,
    // since no simple path may contain a full cycle).
    std::map<int, std::vector<graph::EdgeId>> cycles;
    for (graph::EdgeId j = 0; j < edge_count; ++j) {
      if (!selected.enabled(j)) continue;
      const int c = component[static_cast<std::size_t>(grid.edge(j).u)];
      if (c != s_component) cycles[c].push_back(j);
    }
    for (const auto& [component_id, cycle_edges] : cycles) {
      (void)component_id;
      for (int rr = 0; rr < num_paths; ++rr) {
        ilp::Constraint cut;
        bool complete = true;
        for (graph::EdgeId j : cycle_edges) {
          const ilp::VarId var =
              vars.edge_use[static_cast<std::size_t>(rr * edge_count + j)];
          if (var < 0) {
            complete = false;
            break;
          }
          cut.expr.add(var, 1.0);
        }
        if (!complete) continue;
        cut.sense = ilp::Sense::kLessEqual;
        cut.rhs = static_cast<double>(cycle_edges.size()) - 1.0;
        cuts.push_back(std::move(cut));
      }
    }
  }
  return cuts;
}

// Orders one path's selected edges into a source->meter walk.
std::vector<graph::EdgeId> extract_path(const arch::Biochip& chip,
                                        graph::NodeId s, graph::NodeId t,
                                        const graph::EdgeMask& selected) {
  const graph::Graph& grid = chip.grid().graph();
  std::vector<graph::EdgeId> ordered;
  std::vector<char> used(static_cast<std::size_t>(grid.edge_count()), 0);
  graph::NodeId at = s;
  while (at != t) {
    graph::EdgeId next = graph::kInvalidEdge;
    for (graph::EdgeId j : grid.incident_edges(at)) {
      if (selected.enabled(j) && !used[static_cast<std::size_t>(j)]) {
        next = j;
        break;
      }
    }
    MFD_ASSERT(next != graph::kInvalidEdge,
               "extract_path(): selected edges do not form an s-t path");
    used[static_cast<std::size_t>(next)] = 1;
    ordered.push_back(next);
    at = grid.edge(next).other(at);
    MFD_ASSERT(ordered.size() <= static_cast<std::size_t>(grid.edge_count()),
               "extract_path(): walk exceeded edge count");
  }
  return ordered;
}

// The ILP pins down the union multiset of path edges (the per-use epsilon
// cost makes the total use count part of the objective), but how that union
// splits into the |P| individual paths is an arbitrary choice among symmetric
// optima — and different LP backends (or warm vs cold starts) land on
// different vertices under degeneracy. Re-partition the union into the
// lexicographically smallest list of simple s->t paths, so equal unions give
// bit-identical plans no matter which incumbent the search happened to find.
// Keeps the original partition when the bounded search does not finish.
void canonicalize_paths(const arch::Biochip& chip, graph::NodeId s,
                        graph::NodeId t,
                        std::vector<std::vector<graph::EdgeId>>& paths) {
  if (paths.size() < 2) return;
  const graph::Graph& grid = chip.grid().graph();
  std::vector<int> remaining(static_cast<std::size_t>(grid.edge_count()), 0);
  std::size_t left = 0;
  for (const auto& path : paths) {
    for (graph::EdgeId j : path) ++remaining[static_cast<std::size_t>(j)];
    left += path.size();
  }
  std::vector<std::vector<graph::EdgeId>> incident(
      static_cast<std::size_t>(grid.node_count()));
  for (graph::NodeId i = 0; i < grid.node_count(); ++i) {
    auto& edges = incident[static_cast<std::size_t>(i)];
    for (graph::EdgeId j : grid.incident_edges(i)) edges.push_back(j);
    std::sort(edges.begin(), edges.end());
  }

  constexpr long kStepBudget = 2'000'000;
  long steps = 0;
  std::vector<std::vector<graph::EdgeId>> result(paths.size());
  // Per-path visited sets: deeper paths must not clobber the state a
  // backtracking shallower path will restore.
  std::vector<std::vector<char>> on_path(
      paths.size(),
      std::vector<char>(static_cast<std::size_t>(grid.node_count()), 0));

  std::function<bool(std::size_t)> assemble;
  std::function<bool(std::size_t, graph::NodeId)> extend =
      [&](std::size_t index, graph::NodeId at) -> bool {
    if (++steps > kStepBudget) return false;
    // A simple path reaching the meter must end there.
    if (at == t && !result[index].empty()) return assemble(index + 1);
    for (graph::EdgeId j : incident[static_cast<std::size_t>(at)]) {
      if (remaining[static_cast<std::size_t>(j)] == 0) continue;
      const graph::NodeId next = grid.edge(j).other(at);
      if (on_path[index][static_cast<std::size_t>(next)]) continue;
      --remaining[static_cast<std::size_t>(j)];
      --left;
      on_path[index][static_cast<std::size_t>(next)] = 1;
      result[index].push_back(j);
      if (extend(index, next)) return true;
      result[index].pop_back();
      on_path[index][static_cast<std::size_t>(next)] = 0;
      ++remaining[static_cast<std::size_t>(j)];
      ++left;
    }
    return false;
  };
  assemble = [&](std::size_t index) -> bool {
    if (index == result.size()) return left == 0;
    std::fill(on_path[index].begin(), on_path[index].end(), 0);
    on_path[index][static_cast<std::size_t>(s)] = 1;
    result[index].clear();
    return extend(index, s);
  };
  if (assemble(0)) paths = std::move(result);
}

// True when the exact search inside a solve was cut short rather than
// finishing with a definite answer.
bool solve_interrupted(ilp::SolveStatus status) {
  return status == ilp::SolveStatus::kStopped ||
         status == ilp::SolveStatus::kTimeLimit ||
         status == ilp::SolveStatus::kNodeLimit;
}

// One full |P| = initial..max sweep over a fixed candidate edge set.
// `interrupted` is set (never cleared) when any solve was cut short.
bool plan_with_candidates(const arch::Biochip& chip,
                          const PathPlanOptions& options,
                          const std::vector<char>& edge_allowed,
                          PathPlan& plan, bool& interrupted) {
  const graph::NodeId s = chip.port(plan.source).node;
  const graph::NodeId t = chip.port(plan.meter).node;
  const graph::Graph& grid = chip.grid().graph();

  for (int num_paths = options.initial_paths; num_paths <= options.max_paths;
       ++num_paths) {
    if (stop_requested(options.control)) return false;
    const BuiltModel built =
        build_model(chip, num_paths, s, t, edge_allowed, options);

    ilp::SolverOptions solver_options;
    solver_options.time_limit_seconds = options.time_limit_seconds;
    solver_options.absolute_gap = options.unbiased_gap;
    solver_options.control = options.control;
    const VarLayout& vars = built.layout;
    const auto lazy = [&](const std::vector<double>& candidate) {
      return loop_cuts(chip, num_paths, s, vars, candidate);
    };
    const ilp::Solution solution =
        ilp::solve_ilp(built.model, solver_options, lazy);
    plan.ilp_nodes += solution.nodes_explored;
    plan.lazy_cuts += solution.lazy_constraints_added;
    plan.stats += solution.stats;
    if (solve_interrupted(solution.status)) interrupted = true;
    if (!solution.has_solution()) continue;  // infeasible: grow |P|

    plan.feasible = true;
    plan.paths_used = num_paths;
    for (int r = 0; r < num_paths; ++r) {
      graph::EdgeMask selected(grid.edge_count(), false);
      for (graph::EdgeId j = 0; j < grid.edge_count(); ++j) {
        const ilp::VarId var = vars.edge_use[static_cast<std::size_t>(
            r * grid.edge_count() + j)];
        if (var >= 0 && solution.binary_value(var)) selected.set(j, true);
      }
      plan.paths.push_back(extract_path(chip, s, t, selected));
    }
    canonicalize_paths(chip, s, t, plan.paths);
    for (graph::EdgeId j = 0; j < grid.edge_count(); ++j) {
      const ilp::VarId keep = vars.keep[static_cast<std::size_t>(j)];
      if (keep < 0 || !solution.binary_value(keep)) continue;
      // Keep only edges some path actually uses (s_j is free to be 1).
      bool used = false;
      for (const auto& path : plan.paths) {
        if (std::find(path.begin(), path.end(), j) != path.end()) {
          used = true;
          break;
        }
      }
      if (used) plan.added_edges.push_back(j);
    }
    std::sort(plan.added_edges.begin(), plan.added_edges.end());
    return true;
  }
  return false;
}

}  // namespace

std::pair<arch::PortId, arch::PortId> select_test_ports(
    const arch::Biochip& chip) {
  MFD_REQUIRE(chip.port_count() >= 2,
              "select_test_ports(): chip needs at least two ports");
  arch::PortId best_a = 0;
  arch::PortId best_b = 1;
  int best_distance = -1;
  for (arch::PortId a = 0; a < chip.port_count(); ++a) {
    for (arch::PortId b = a + 1; b < chip.port_count(); ++b) {
      const int d = chip.grid().manhattan_distance(chip.port(a).node,
                                                   chip.port(b).node);
      if (d > best_distance) {
        best_distance = d;
        best_a = a;
        best_b = b;
      }
    }
  }
  return {best_a, best_b};
}

PathPlan plan_dft_paths(const arch::Biochip& chip,
                        const PathPlanOptions& options) {
  MFD_REQUIRE(options.initial_paths >= 1, "plan_dft_paths(): |P| must be >= 1");
  PathPlan plan;
  const auto [source, meter] = select_test_ports(chip);
  plan.source = source;
  plan.meter = meter;

  bool interrupted = false;
  const int free_edges =
      chip.grid().graph().edge_count() - chip.valve_count();
  const bool restrict =
      options.restrict_to_neighborhood ==
          PathPlanOptions::Neighborhood::kAlways ||
      (options.restrict_to_neighborhood ==
           PathPlanOptions::Neighborhood::kAuto &&
       free_edges > kAutoRestrictThreshold);
  if (restrict) {
    if (plan_with_candidates(chip, options, neighborhood_candidates(chip),
                             plan, interrupted)) {
      return plan;
    }
  }
  // Unrestricted retry (or first attempt when restriction is disabled).
  if (!stop_requested(options.control)) {
    std::vector<char> all(
        static_cast<std::size_t>(chip.grid().graph().edge_count()), 1);
    plan_with_candidates(chip, options, all, plan, interrupted);
  }
  if (plan.feasible) return plan;

  if (stop_requested(options.control)) interrupted = true;
  if (!interrupted) return plan;  // genuinely infeasible: no fallback

  // The exact search was cut short before finding any plan. Degrade
  // gracefully: report how it was interrupted and hand the instance to the
  // deterministic greedy planner.
  const StopReason reason =
      options.control != nullptr ? options.control->check() : StopReason::kNone;
  const Outcome outcome = reason != StopReason::kNone
                              ? outcome_of(reason)
                              : Outcome::kDeadlineExceeded;
  if (greedy_dft_paths(chip, plan)) {
    plan.method = PathPlan::Method::kGreedyFallback;
    plan.status = Status::Fail(outcome, "plan_dft_paths",
                               "exact search interrupted; plan built by the "
                               "greedy fallback");
  } else {
    plan.status = Status::Fail(outcome, "plan_dft_paths",
                               "exact search interrupted before any plan "
                               "was found");
  }
  return plan;
}

arch::Biochip apply_plan(const arch::Biochip& chip, const PathPlan& plan) {
  MFD_REQUIRE(plan.feasible, "apply_plan(): plan is not feasible");
  arch::Biochip augmented = chip;
  for (graph::EdgeId j : plan.added_edges) {
    augmented.add_dft_channel(j);
  }
  return augmented;
}

}  // namespace mfd::testgen
