#include "testgen/minimize.hpp"

#include <algorithm>
#include <optional>

#include "ilp/solver.hpp"
#include "sim/batch_fault.hpp"

namespace mfd::testgen {

namespace {

// Wall-clock limit of the exact set-cover ILP.
constexpr double kIlpTimeLimitSeconds = 20.0;

// detection[v][f] = vector v detects fault f. One batch load per vector
// classifies every fault at once.
std::vector<std::vector<char>> detection_matrix(
    const arch::Biochip& chip, const std::vector<sim::TestVector>& vectors,
    const std::vector<sim::Fault>& faults) {
  sim::BatchFaultSimulator batch(chip);
  std::vector<std::vector<char>> matrix(
      vectors.size(), std::vector<char>(faults.size(), 0));
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    batch.load(vectors[v]);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      matrix[v][f] = batch.detects(faults[f]) ? 1 : 0;
    }
  }
  return matrix;
}

std::vector<std::size_t> greedy_cover(
    const std::vector<std::vector<char>>& matrix, std::size_t fault_count) {
  std::vector<char> covered(fault_count, 0);
  std::vector<char> used(matrix.size(), 0);
  std::vector<std::size_t> chosen;
  std::size_t remaining = fault_count;
  while (remaining > 0) {
    std::size_t best = matrix.size();
    int best_gain = 0;
    for (std::size_t v = 0; v < matrix.size(); ++v) {
      if (used[v]) continue;
      int gain = 0;
      for (std::size_t f = 0; f < fault_count; ++f) {
        if (!covered[f] && matrix[v][f]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    MFD_ASSERT(best < matrix.size(),
               "greedy_cover(): input does not cover all faults");
    used[best] = 1;
    chosen.push_back(best);
    for (std::size_t f = 0; f < fault_count; ++f) {
      if (matrix[best][f] && !covered[f]) {
        covered[f] = 1;
        --remaining;
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

struct ExactCover {
  std::vector<std::size_t> chosen;
  bool proved_optimal = false;
};

std::optional<ExactCover> exact_cover(
    const std::vector<std::vector<char>>& matrix, std::size_t fault_count,
    const MinimizeOptions& options, ilp::SolveStats& stats) {
  ilp::Model model;
  std::vector<ilp::VarId> pick(matrix.size());
  ilp::LinearExpr objective;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    pick[v] = model.add_binary("t" + std::to_string(v));
    objective.add(pick[v], 1.0);
  }
  for (std::size_t f = 0; f < fault_count; ++f) {
    ilp::LinearExpr cover;
    for (std::size_t v = 0; v < matrix.size(); ++v) {
      if (matrix[v][f]) cover.add(pick[v], 1.0);
    }
    model.add_constraint(std::move(cover), ilp::Sense::kGreaterEqual, 1.0);
  }
  model.set_objective(std::move(objective));

  ilp::SolverOptions solver;
  solver.time_limit_seconds = kIlpTimeLimitSeconds;
  solver.absolute_gap = 0.5;  // objective is integral
  solver.control = options.control;
  const ilp::Solution solution = ilp::solve_ilp(model, solver);
  stats += solution.stats;
  // Every integral incumbent of the cover model is a valid cover, so an
  // interrupted solve's best-so-far is still usable; only the optimality
  // claim depends on the solve running to completion.
  if (!solution.has_solution()) return std::nullopt;
  ExactCover result;
  result.proved_optimal = solution.status == ilp::SolveStatus::kOptimal;
  for (std::size_t v = 0; v < matrix.size(); ++v) {
    if (solution.binary_value(pick[v])) result.chosen.push_back(v);
  }
  return result;
}

}  // namespace

TestSuite minimize_test_suite(const arch::Biochip& chip,
                              const TestSuite& suite,
                              const MinimizeOptions& options,
                              MinimizeStats* stats) {
  MFD_REQUIRE(suite.coverage.complete(),
              "minimize_test_suite(): input suite must have full coverage");
  const std::vector<sim::Fault> faults = sim::all_faults(chip);
  const auto matrix = detection_matrix(chip, suite.vectors, faults);

  std::vector<std::size_t> chosen;
  bool exact = false;
  ilp::SolveStats ilp_stats;
  if (static_cast<int>(suite.vectors.size()) <= options.exact_threshold) {
    if (auto solved =
            exact_cover(matrix, faults.size(), options, ilp_stats)) {
      chosen = std::move(solved->chosen);
      exact = solved->proved_optimal;
    }
  }
  if (chosen.empty()) chosen = greedy_cover(matrix, faults.size());

  TestSuite minimized;
  for (std::size_t v : chosen) minimized.vectors.push_back(suite.vectors[v]);
  minimized.coverage = sim::evaluate_coverage(chip, minimized.vectors);
  MFD_ASSERT(minimized.coverage.complete(),
             "minimize_test_suite(): minimized set lost coverage");
  if (stats != nullptr) {
    stats->vectors_before = suite.size();
    stats->vectors_after = minimized.size();
    stats->exact = exact;
    stats->ilp = ilp_stats;
  }
  return minimized;
}

}  // namespace mfd::testgen
