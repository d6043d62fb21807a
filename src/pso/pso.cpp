#include "pso/pso.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mfd::pso {

int decode_index(double coordinate, int count) {
  MFD_REQUIRE(count > 0, "decode_index(): count must be positive");
  const double clamped = std::clamp(coordinate, 0.0, 1.0);
  const int index = static_cast<int>(clamped * count);
  return std::min(index, count - 1);
}

PsoResult minimize(int dimensions, const BatchObjective& objective,
                   const PsoOptions& options,
                   const std::vector<std::vector<double>>& seed_positions) {
  MFD_REQUIRE(dimensions >= 0, "pso::minimize(): negative dimensionality");
  MFD_REQUIRE(options.particles >= 1 && options.iterations >= 0,
              "pso::minimize(): need at least one particle");

  PsoResult result;
  if (stop_requested(options.control)) {
    result.stopped_early = true;
    return result;
  }
  if (dimensions == 0) {
    const std::vector<std::vector<double>> empty_position(1);
    std::vector<double> value(1);
    objective(empty_position, value);
    result.best_position = {};
    result.best_value = value[0];
    result.evaluations = 1;
    result.batch_calls = 1;
    result.best_per_iteration.assign(
        static_cast<std::size_t>(options.iterations) + 1, result.best_value);
    if (options.control != nullptr &&
        options.control->stop_observed() != StopReason::kNone) {
      result.stopped_early = true;
    }
    return result;
  }

  Rng rng(options.seed);
  const std::size_t dim = static_cast<std::size_t>(dimensions);
  const std::size_t swarm = static_cast<std::size_t>(options.particles);

  std::vector<std::vector<double>> position(swarm, std::vector<double>(dim));
  std::vector<std::vector<double>> velocity(swarm,
                                            std::vector<double>(dim, 0.0));
  std::vector<std::vector<double>> best_position(swarm);
  std::vector<double> best_value(
      swarm, std::numeric_limits<double>::infinity());
  std::vector<double> value(swarm, 0.0);

  // One batch evaluation of the current positions; bests are folded in
  // ascending particle order with strict '<', so ties keep the earliest
  // particle and the outcome never depends on evaluation order.
  const auto evaluate_swarm = [&] {
    objective(position, value);
    ++result.batch_calls;
    result.evaluations += static_cast<int>(swarm);
    for (std::size_t p = 0; p < swarm; ++p) {
      if (value[p] < best_value[p]) {
        best_value[p] = value[p];
        best_position[p] = position[p];
      }
      if (value[p] < result.best_value) {
        result.best_value = value[p];
        result.best_position = position[p];
      }
    }
  };

  for (std::size_t p = 0; p < swarm; ++p) {
    if (p < seed_positions.size()) {
      MFD_REQUIRE(seed_positions[p].size() == dim,
                  "pso::minimize(): seed position dimension mismatch");
      position[p] = seed_positions[p];
      for (std::size_t d = 0; d < dim; ++d) {
        position[p][d] = std::clamp(position[p][d], 0.0, 1.0);
        velocity[p][d] = rng.uniform(-kVmax, kVmax);
      }
    } else {
      for (std::size_t d = 0; d < dim; ++d) {
        position[p][d] = rng.uniform();
        velocity[p][d] = rng.uniform(-kVmax, kVmax);
      }
    }
    best_position[p] = position[p];
  }
  evaluate_swarm();
  for (std::size_t p = 0; p < swarm; ++p) {
    // First batch: every particle's own best is its initial position.
    best_value[p] = value[p];
  }
  result.best_per_iteration.push_back(result.best_value);

  for (int iteration = 0; iteration < options.iterations; ++iteration) {
    // Serial synchronization point: stop between batches, never inside one.
    if (stop_requested(options.control)) {
      result.stopped_early = true;
      return result;
    }
    // All moves use the swarm best frozen at the end of the previous batch.
    for (std::size_t p = 0; p < swarm; ++p) {
      for (std::size_t d = 0; d < dim; ++d) {
        const double r1 = rng.uniform();
        const double r2 = rng.uniform();
        double v = kOmega * velocity[p][d] +
                   kC1 * r1 * (best_position[p][d] - position[p][d]);
        if (!result.best_position.empty()) {
          v += kC2 * r2 * (result.best_position[d] - position[p][d]);
        }
        velocity[p][d] = std::clamp(v, -kVmax, kVmax);
        position[p][d] =
            std::clamp(position[p][d] + velocity[p][d], 0.0, 1.0);
      }
    }
    evaluate_swarm();
    result.best_per_iteration.push_back(result.best_value);
  }
  // A stop that fired inside the last batch leaves timing-dependent values
  // in the fold; flag it so callers can discard the contaminated result.
  if (options.control != nullptr &&
      options.control->stop_observed() != StopReason::kNone) {
    result.stopped_early = true;
  }
  return result;
}

}  // namespace mfd::pso
