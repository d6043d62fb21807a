// DFT augmentation by ILP test-path construction (Section 3, eqs (1)-(6)).
//
// Given a chip mapped on its connection grid, find |P| source->meter test
// paths such that every original channel lies on at least one path, while
// minimizing the number of *free* grid edges the paths use — those free
// edges become the DFT channels and valves. |P| starts at 2 and grows until
// the ILP is feasible. Loops (disjoint cycles that satisfy the degree
// constraints) are excluded lazily with subtour-elimination cuts, following
// the technique of [16].
#pragma once

#include <utility>
#include <vector>

#include "arch/biochip.hpp"
#include "common/status.hpp"
#include "ilp/solver.hpp"

namespace mfd::testgen {

struct PathPlanOptions {
  /// First |P| tried; the paper starts at 2.
  int initial_paths = 2;
  /// |P| values beyond this abort the search.
  int max_paths = 6;
  /// Per-ILP-solve time limit (seconds).
  double time_limit_seconds = 60.0;
  /// Candidate-edge restriction: limit DFT edges to free grid edges touching
  /// the existing chip (an occupied node: port, device, or channel
  /// endpoint). kAuto enables the restriction only for grids with more than
  /// 28 free edges: that separates the mRNA-scale grids, where the
  /// restriction is what makes the ILP tractable, from small grids, where
  /// the unrestricted model solves faster. If the restricted problem is
  /// infeasible for every |P|, the planner automatically retries with the
  /// full grid.
  enum class Neighborhood { kAuto, kAlways, kNever };
  Neighborhood restrict_to_neighborhood = Neighborhood::kAuto;
  /// Configurations whose added-edge set is a superset of any entry here are
  /// excluded (no-good cuts). Used to enumerate distinct near-minimal DFT
  /// configurations for the outer PSO level.
  std::vector<std::vector<graph::EdgeId>> forbidden_added_sets;
  /// Branch-and-bound incumbents within this objective distance of the LP
  /// bound are accepted without proving exact optimality. The default keeps
  /// the added-channel count optimal while skipping the expensive proof
  /// tail (edge costs are integral up to small epsilon terms).
  double unbiased_gap = 0.6;
  /// Optional cooperative deadline/cancellation, polled between ILP
  /// re-solves and inside them. Borrowed, may be null. When the exact search
  /// is interrupted (a stop, or a time/node limit inside a solve) before any
  /// plan is found, the deterministic greedy planner (greedy_paths.hpp)
  /// builds one instead; genuine infeasibility never triggers it.
  const RunControl* control = nullptr;
};

struct PathPlan {
  bool feasible = false;
  /// The test ports chosen (maximum-distance pair).
  arch::PortId source = -1;
  arch::PortId meter = -1;
  /// One entry per test path: the ordered grid edges from source to meter.
  std::vector<std::vector<graph::EdgeId>> paths;
  /// Free grid edges selected for DFT channels (sorted, unique).
  std::vector<graph::EdgeId> added_edges;
  /// |P| that produced the plan.
  int paths_used = 0;
  /// Total branch-and-bound nodes over all |P| attempts.
  int ilp_nodes = 0;
  int lazy_cuts = 0;
  /// How the plan was produced: the exact ILP, or the greedy fallback that
  /// activates when the exact search is interrupted.
  enum class Method { kExactIlp, kGreedyFallback };
  Method method = Method::kExactIlp;
  /// kOk for an uninterrupted exact run. kDeadlineExceeded/kCancelled when
  /// the exact search was cut short — the plan, if feasible, then came from
  /// the greedy fallback and callers (run_codesign, the job service) can
  /// surface the degradation instead of a hard failure.
  Status status = Status::Ok();
  /// LP engine counters accumulated over every ILP solve of this planning
  /// run.
  ilp::SolveStats stats;
};

/// The port pair with the largest grid (Manhattan) distance, favouring long
/// test paths that cover many channels (Section 3). Ties break towards lower
/// port ids.
std::pair<arch::PortId, arch::PortId> select_test_ports(
    const arch::Biochip& chip);

/// Runs the augmentation ILP. The returned plan's `paths` are simple
/// source->meter paths whose union covers every original channel.
PathPlan plan_dft_paths(const arch::Biochip& chip,
                        const PathPlanOptions& options = {});

/// Applies a plan to a copy of the chip: adds one DFT channel (and valve)
/// per added edge. Control channels for the new valves are left unassigned.
arch::Biochip apply_plan(const arch::Biochip& chip, const PathPlan& plan);

}  // namespace mfd::testgen
