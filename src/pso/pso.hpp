// Generic particle swarm optimizer (Kennedy & Eberhart [20]).
//
// Minimizes an objective over the unit hypercube [0,1]^d. Callers decode a
// position into their domain object (the codesign engine decodes valve-
// sharing assignments and DFT-configuration choices). The implementation
// uses the standard velocity update
//     v <- w*v + c1*r1*(p_best - x) + c2*r2*(g_best - x)
// (the paper's equation (7) prints the differences with the opposite sign,
// which would repel particles from their best positions; we follow the
// canonical formulation).
//
// Iterations are synchronous: every particle's velocity and position are
// updated against the same frozen swarm best, then the whole swarm is
// evaluated as one batch, then personal/swarm bests are folded in ascending
// particle order (ties keep the earlier particle). That makes the result
// independent of how the batch objective schedules its evaluations, so a
// parallel batch objective reproduces the serial run bit for bit.
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/run_control.hpp"

namespace mfd::pso {

/// The velocity update's inertia weight and cognitive (own-best) and
/// social (swarm-best) accelerations, and the velocity clamp per dimension.
inline constexpr double kOmega = 0.72;
inline constexpr double kC1 = 1.49;
inline constexpr double kC2 = 1.49;
inline constexpr double kVmax = 0.25;

struct PsoOptions {
  int particles = 5;
  int iterations = 100;
  std::uint64_t seed = 42;
  /// Optional cooperative deadline/cancellation, polled at the serial
  /// iteration boundaries (between swarm batches). Borrowed, may be null.
  const RunControl* control = nullptr;
};

struct PsoResult {
  std::vector<double> best_position;
  double best_value = std::numeric_limits<double>::infinity();
  /// Swarm best after each iteration (index 0 = after initialization).
  std::vector<double> best_per_iteration;
  /// Positions evaluated (particles x batches, regardless of batching).
  int evaluations = 0;
  /// Batch-objective invocations: 1 (initialization) + iterations.
  int batch_calls = 0;
  /// A RunControl stop fired before the last iteration completed; the
  /// result is the best of the iterations that did run.
  bool stopped_early = false;
};

/// Evaluates a whole swarm at once: writes values[i] = f(positions[i]) for
/// every i. positions.size() == values.size() is guaranteed. The order in
/// which a batch objective computes its entries is unobservable to the
/// optimizer, which is what permits parallel fitness evaluation.
using BatchObjective = std::function<void(
    std::span<const std::vector<double>>, std::span<double>)>;

/// Runs PSO over [0,1]^dimensions and returns the best position found.
/// Objectives may return +infinity for invalid positions. With dimensions ==
/// 0 the objective is evaluated once on the empty position.
/// `seed_positions` warm-start the first swarm slots (extra seeds are
/// ignored); remaining particles start random. The two-level codesign uses
/// this to initialize each sub-swarm at the outer particle's current
/// valve-sharing vector, so sharing quality improves across outer iterations
/// as in the paper's step (2).
PsoResult minimize(int dimensions, const BatchObjective& objective,
                   const PsoOptions& options = {},
                   const std::vector<std::vector<double>>& seed_positions = {});

/// Decodes a coordinate in [0,1] into an integer index in [0, count).
[[nodiscard]] int decode_index(double coordinate, int count);

}  // namespace mfd::pso
