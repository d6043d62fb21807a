#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "pso/pso.hpp"

namespace mfd::pso {
namespace {

double sphere(const std::vector<double>& x) {
  double total = 0.0;
  for (double v : x) total += (v - 0.5) * (v - 0.5);
  return total;
}

// A batch objective that evaluates a scalar objective position by position,
// in order.
BatchObjective sequential(
    std::function<double(const std::vector<double>&)> objective) {
  return [objective = std::move(objective)](
             std::span<const std::vector<double>> positions,
             std::span<double> values) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      values[i] = objective(positions[i]);
    }
  };
}

TEST(DecodeIndexTest, MapsUnitIntervalToBuckets) {
  EXPECT_EQ(decode_index(0.0, 4), 0);
  EXPECT_EQ(decode_index(0.24, 4), 0);
  EXPECT_EQ(decode_index(0.26, 4), 1);
  EXPECT_EQ(decode_index(0.99, 4), 3);
  EXPECT_EQ(decode_index(1.0, 4), 3);  // boundary clamps into range
}

TEST(DecodeIndexTest, ClampsOutOfRangeCoordinates) {
  EXPECT_EQ(decode_index(-0.5, 3), 0);
  EXPECT_EQ(decode_index(1.5, 3), 2);
}

TEST(DecodeIndexTest, RejectsEmptyRange) {
  EXPECT_THROW((void)decode_index(0.5, 0), Error);
}

TEST(PsoTest, MinimizesSphere) {
  PsoOptions options;
  options.particles = 10;
  options.iterations = 60;
  const PsoResult r = minimize(4, sequential(sphere), options);
  EXPECT_LT(r.best_value, 0.01);
  for (double x : r.best_position) {
    EXPECT_NEAR(x, 0.5, 0.2);
  }
}

TEST(PsoTest, BestPerIterationIsMonotoneNonIncreasing) {
  PsoOptions options;
  options.particles = 6;
  options.iterations = 30;
  const PsoResult r = minimize(3, sequential(sphere), options);
  ASSERT_EQ(r.best_per_iteration.size(), 31u);
  for (std::size_t i = 1; i < r.best_per_iteration.size(); ++i) {
    EXPECT_LE(r.best_per_iteration[i], r.best_per_iteration[i - 1] + 1e-12);
  }
}

TEST(PsoTest, DeterministicForFixedSeed) {
  PsoOptions options;
  options.seed = 77;
  const PsoResult a = minimize(3, sequential(sphere), options);
  const PsoResult b = minimize(3, sequential(sphere), options);
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.best_position, b.best_position);
}

TEST(PsoTest, DifferentSeedsExploreDifferently) {
  PsoOptions a_options;
  a_options.seed = 1;
  a_options.iterations = 5;
  PsoOptions b_options = a_options;
  b_options.seed = 2;
  const PsoResult a = minimize(5, sequential(sphere), a_options);
  const PsoResult b = minimize(5, sequential(sphere), b_options);
  EXPECT_NE(a.best_position, b.best_position);
}

TEST(PsoTest, ZeroDimensionsEvaluatesOnce) {
  int calls = 0;
  const PsoResult r = minimize(
      0,
      sequential([&](const std::vector<double>& x) {
        ++calls;
        EXPECT_TRUE(x.empty());
        return 42.0;
      }),
      PsoOptions{});
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(r.best_value, 42.0);
  EXPECT_EQ(r.evaluations, 1);
}

TEST(PsoTest, HandlesAllInfiniteObjectives) {
  PsoOptions options;
  options.particles = 4;
  options.iterations = 5;
  const PsoResult r = minimize(
      2,
      sequential([](const std::vector<double>&) {
        return std::numeric_limits<double>::infinity();
      }),
      options);
  EXPECT_TRUE(std::isinf(r.best_value));
}

TEST(PsoTest, SeedPositionsAreEvaluatedFirst) {
  // Seed the known optimum; it must be found immediately.
  PsoOptions options;
  options.particles = 5;
  options.iterations = 0;
  const std::vector<double> optimum(3, 0.5);
  const PsoResult r = minimize(3, sequential(sphere), options, {optimum});
  EXPECT_NEAR(r.best_value, 0.0, 1e-12);
  EXPECT_EQ(r.best_position, optimum);
}

TEST(PsoTest, SeedPositionsClampedIntoUnitCube) {
  PsoOptions options;
  options.particles = 2;
  options.iterations = 0;
  const PsoResult r = minimize(
      2,
      sequential([](const std::vector<double>& x) {
        for (double v : x) {
          EXPECT_GE(v, 0.0);
          EXPECT_LE(v, 1.0);
        }
        return 0.0;
      }),
      options, {{-3.0, 9.0}});
  EXPECT_DOUBLE_EQ(r.best_value, 0.0);
}

TEST(PsoTest, SeedDimensionMismatchRejected) {
  EXPECT_THROW(minimize(3, sequential(sphere), PsoOptions{}, {{0.5}}), Error);
}

TEST(PsoTest, EvaluationCountMatchesBudget) {
  PsoOptions options;
  options.particles = 7;
  options.iterations = 9;
  const PsoResult r = minimize(2, sequential(sphere), options);
  EXPECT_EQ(r.evaluations, 7 * (1 + 9));
}

TEST(PsoBatchTest, BatchObjectiveMatchesScalar) {
  PsoOptions options;
  options.particles = 6;
  options.iterations = 20;
  options.seed = 31;
  const PsoResult scalar = minimize(3, sequential(sphere), options);
  const BatchObjective batch =
      [](std::span<const std::vector<double>> positions,
         std::span<double> values) {
        ASSERT_EQ(positions.size(), values.size());
        for (std::size_t i = 0; i < positions.size(); ++i) {
          values[i] = sphere(positions[i]);
        }
      };
  const PsoResult batched = minimize(3, batch, options);
  EXPECT_EQ(scalar.best_position, batched.best_position);
  EXPECT_DOUBLE_EQ(scalar.best_value, batched.best_value);
  EXPECT_EQ(scalar.best_per_iteration, batched.best_per_iteration);
  EXPECT_EQ(scalar.evaluations, batched.evaluations);
  EXPECT_EQ(scalar.batch_calls, batched.batch_calls);
}

TEST(PsoBatchTest, BatchCallsCountInvocations) {
  PsoOptions options;
  options.particles = 7;
  options.iterations = 9;
  int calls = 0;
  const PsoResult r = minimize(
      2,
      [&](std::span<const std::vector<double>> positions,
          std::span<double> values) {
        ++calls;
        EXPECT_EQ(positions.size(), 7u);
        for (std::size_t i = 0; i < positions.size(); ++i) {
          values[i] = sphere(positions[i]);
        }
      },
      options);
  EXPECT_EQ(calls, 1 + 9);  // initialization + one per iteration
  EXPECT_EQ(r.batch_calls, calls);
  EXPECT_EQ(r.evaluations, 7 * (1 + 9));  // positions, not invocations
}

TEST(PsoBatchTest, ZeroDimensionsCallsBatchOnceWithEmptyPosition) {
  int calls = 0;
  const PsoResult r = minimize(
      0,
      [&](std::span<const std::vector<double>> positions,
          std::span<double> values) {
        ++calls;
        ASSERT_EQ(positions.size(), 1u);
        EXPECT_TRUE(positions[0].empty());
        values[0] = 5.0;
      },
      PsoOptions{});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.batch_calls, 1);
  EXPECT_EQ(r.evaluations, 1);
  EXPECT_DOUBLE_EQ(r.best_value, 5.0);
}

TEST(PsoBatchTest, EvaluationOrderInsideBatchIsUnobservable) {
  // Filling the values array back-to-front must give the same result as
  // front-to-back: this is what makes parallel batch evaluation safe.
  PsoOptions options;
  options.particles = 5;
  options.iterations = 10;
  const BatchObjective reversed =
      [](std::span<const std::vector<double>> positions,
         std::span<double> values) {
        for (std::size_t i = positions.size(); i-- > 0;) {
          values[i] = sphere(positions[i]);
        }
      };
  const PsoResult forward = minimize(4, sequential(sphere), options);
  const PsoResult backward = minimize(4, reversed, options);
  EXPECT_EQ(forward.best_position, backward.best_position);
  EXPECT_EQ(forward.best_per_iteration, backward.best_per_iteration);
}

TEST(PsoTest, PositionsStayInUnitCube) {
  PsoOptions options;
  options.particles = 5;
  options.iterations = 40;
  minimize(3,
           sequential([](const std::vector<double>& x) {
             for (double v : x) {
               EXPECT_GE(v, 0.0);
               EXPECT_LE(v, 1.0);
             }
             return -x[0];  // push against the boundary
           }),
           options);
}

}  // namespace
}  // namespace mfd::pso
