// Memoization behaviour of core::Evaluator: repeated candidates cost exactly
// one scheduler run, counters match, and batches dedupe deterministically
// regardless of the thread count.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "arch/chips.hpp"
#include "core/codesign.hpp"

namespace mfd::core {
namespace {

struct Fixture {
  arch::Biochip chip;
  sched::Assay assay;
  std::vector<testgen::PathPlan> pool;
  std::vector<arch::Biochip> augmented;

  /// The IVD chip's pool of 2 by default. figure4_chip's pool of 4 adds 3,
  /// 4, 4 and 5 edges, so its configurations 1 and 2 have equal DFT valve
  /// counts.
  explicit Fixture(arch::Biochip chip_in = arch::make_ivd_chip(),
                   int pool_size = 2)
      : chip(std::move(chip_in)), assay(sched::make_ivd_assay()) {
    pool = enumerate_dft_configurations(chip, pool_size);
    for (const testgen::PathPlan& plan : pool) {
      augmented.push_back(testgen::apply_plan(chip, plan));
    }
  }

  [[nodiscard]] int dft_count(int config) const {
    return static_cast<int>(
        pool[static_cast<std::size_t>(config)].added_edges.size());
  }

  /// A sharing scheme assigning every DFT valve of `config` the same
  /// original-valve partner (by index into the original valves).
  [[nodiscard]] SharingScheme uniform_scheme(int config,
                                             int original_index) const {
    const arch::Biochip& aug = augmented[static_cast<std::size_t>(config)];
    std::vector<arch::ValveId> originals;
    for (arch::ValveId v = 0; v < aug.valve_count(); ++v) {
      if (!aug.valve(v).is_dft) originals.push_back(v);
    }
    SharingScheme scheme;
    scheme.partner.assign(
        static_cast<std::size_t>(dft_count(config)),
        originals[static_cast<std::size_t>(original_index) %
                  originals.size()]);
    return scheme;
  }

  // The evaluator holds references into the fixture, so tests hold it
  // through a unique_ptr.
  [[nodiscard]] std::unique_ptr<Evaluator> make_evaluator(
      ThreadPool& pool_ref, FitnessCache* cache = nullptr) {
    auto evaluator = std::make_unique<Evaluator>(
        EvaluatorOptions{.assay = &assay,
                         .pool = &pool_ref,
                         .cache = cache});
    for (std::size_t i = 0; i < augmented.size(); ++i) {
      evaluator->add_config(augmented[i], pool[i]);
    }
    return evaluator;
  }
};

TEST(EvalCacheTest, RepeatedEvaluationRunsSchedulerOnce) {
  Fixture f;
  ThreadPool pool(1);
  const auto evaluator = f.make_evaluator(pool);
  const SharingScheme scheme = f.uniform_scheme(0, 0);

  const Evaluation first = evaluator->evaluate(0, scheme);
  EXPECT_EQ(evaluator->stats().evaluations, 1);
  EXPECT_EQ(evaluator->stats().cache_hits, 0);
  EXPECT_EQ(evaluator->stats().scheduler_runs, 1);

  const Evaluation second = evaluator->evaluate(0, scheme);
  EXPECT_EQ(evaluator->stats().evaluations, 1);
  EXPECT_EQ(evaluator->stats().cache_hits, 1);
  EXPECT_EQ(evaluator->stats().scheduler_runs, 1);  // exactly one run total
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.schedule_ok, second.schedule_ok);
  EXPECT_EQ(first.tests_ok, second.tests_ok);
}

TEST(EvalCacheTest, DifferentSchemeBypassesCache) {
  Fixture f;
  ThreadPool pool(1);
  const auto evaluator = f.make_evaluator(pool);
  evaluator->evaluate(0, f.uniform_scheme(0, 0));
  evaluator->evaluate(0, f.uniform_scheme(0, 1));
  EXPECT_EQ(evaluator->stats().evaluations, 2);
  EXPECT_EQ(evaluator->stats().cache_hits, 0);
  EXPECT_EQ(evaluator->stats().scheduler_runs, 2);
}

TEST(EvalCacheTest, SameSchemeDifferentConfigBypassesCache) {
  Fixture f(arch::make_figure4_chip(), 4);
  ASSERT_EQ(f.pool.size(), 4u);
  ASSERT_EQ(f.dft_count(1), f.dft_count(2));
  ThreadPool pool(1);
  const auto evaluator = f.make_evaluator(pool);
  evaluator->evaluate(1, f.uniform_scheme(1, 0));
  evaluator->evaluate(2, f.uniform_scheme(1, 0));
  EXPECT_EQ(evaluator->stats().evaluations, 2);
  EXPECT_EQ(evaluator->stats().cache_hits, 0);
}

TEST(EvalCacheTest, BatchDedupesAgainstCacheAndWithinBatch) {
  Fixture f;
  ThreadPool pool(2);
  const auto evaluator = f.make_evaluator(pool);

  // Warm the cache with scheme A.
  const SharingScheme a = f.uniform_scheme(0, 0);
  const SharingScheme b = f.uniform_scheme(0, 1);
  const Evaluation a_eval = evaluator->evaluate(0, a);

  // Batch = [A, B, B, A]: A twice from cache, B computed once + one in-batch
  // duplicate.
  const std::vector<SharingScheme> schemes{a, b, b, a};
  std::vector<double> makespans(schemes.size(), -1.0);
  evaluator->evaluate_batch(0, schemes, makespans);

  EXPECT_EQ(evaluator->stats().evaluations, 2);  // A once, B once
  EXPECT_EQ(evaluator->stats().cache_hits, 3);
  EXPECT_EQ(evaluator->stats().scheduler_runs, 2);
  EXPECT_EQ(makespans[0], a_eval.makespan);
  EXPECT_EQ(makespans[3], a_eval.makespan);
  EXPECT_EQ(makespans[1], makespans[2]);
  EXPECT_EQ(makespans[1], evaluator->evaluate(0, b).makespan);
}

TEST(EvalCacheTest, BatchResultsMatchSerialEvaluation) {
  Fixture f;
  const std::vector<SharingScheme> schemes{
      f.uniform_scheme(0, 0), f.uniform_scheme(0, 1), f.uniform_scheme(0, 2),
      f.uniform_scheme(0, 3)};

  ThreadPool serial_pool(1);
  const auto serial = f.make_evaluator(serial_pool);
  std::vector<double> expected;
  for (const SharingScheme& scheme : schemes) {
    expected.push_back(serial->evaluate(0, scheme).makespan);
  }

  ThreadPool parallel_pool(4);
  const auto parallel = f.make_evaluator(parallel_pool);
  std::vector<double> actual(schemes.size(), -1.0);
  parallel->evaluate_batch(0, schemes, actual);

  EXPECT_EQ(actual, expected);
  EXPECT_EQ(parallel->stats().evaluations, serial->stats().evaluations);
  EXPECT_EQ(parallel->stats().scheduler_runs, serial->stats().scheduler_runs);
}

TEST(EvalCacheTest, CountersIndependentOfThreadCount) {
  Fixture f;
  const std::vector<SharingScheme> schemes{
      f.uniform_scheme(0, 0), f.uniform_scheme(0, 1), f.uniform_scheme(0, 0),
      f.uniform_scheme(0, 2), f.uniform_scheme(0, 3), f.uniform_scheme(0, 1)};

  auto run = [&](int threads) {
    ThreadPool pool_ref(threads);
    const auto evaluator = f.make_evaluator(pool_ref);
    std::vector<double> makespans(schemes.size(), -1.0);
    evaluator->evaluate_batch(0, schemes, makespans);
    return std::make_tuple(makespans, evaluator->stats().evaluations,
                           evaluator->stats().cache_hits,
                           evaluator->stats().testgen_runs);
  };

  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_EQ(std::get<0>(one), std::get<0>(eight));
  EXPECT_EQ(std::get<1>(one), std::get<1>(eight));
  EXPECT_EQ(std::get<2>(one), std::get<2>(eight));
  EXPECT_EQ(std::get<3>(one), std::get<3>(eight));
  EXPECT_EQ(std::get<1>(one), 4);  // four distinct schemes
  EXPECT_EQ(std::get<2>(one), 2);  // two in-batch duplicates
}

TEST(EvalCacheTest, SharedTierServesSecondEvaluatorWithLogicalCounters) {
  Fixture f;
  ThreadPool pool(2);
  FitnessCache shared;
  const std::vector<SharingScheme> schemes{
      f.uniform_scheme(0, 0), f.uniform_scheme(0, 1), f.uniform_scheme(0, 0)};

  // First evaluator computes and populates the shared tier.
  const auto first = f.make_evaluator(pool, &shared);
  std::vector<double> first_out(schemes.size(), -1.0);
  first->evaluate_batch(0, schemes, first_out);
  EXPECT_EQ(first->stats().shared_hits, 0);
  EXPECT_GT(shared.size(), 0u);

  // A private-cache evaluator defines the expected logical counters.
  const auto lone = f.make_evaluator(pool);
  std::vector<double> lone_out(schemes.size(), -1.0);
  lone->evaluate_batch(0, schemes, lone_out);

  // Second shared evaluator: same outputs, same logical counters, but all
  // unique work served from the shared tier.
  const auto second = f.make_evaluator(pool, &shared);
  std::vector<double> second_out(schemes.size(), -1.0);
  second->evaluate_batch(0, schemes, second_out);
  EXPECT_EQ(second_out, lone_out);
  EXPECT_EQ(second->stats().evaluations, lone->stats().evaluations);
  EXPECT_EQ(second->stats().cache_hits, lone->stats().cache_hits);
  EXPECT_EQ(second->stats().scheduler_runs, lone->stats().scheduler_runs);
  EXPECT_EQ(second->stats().testgen_runs, lone->stats().testgen_runs);
  EXPECT_EQ(second->stats().shared_hits, second->stats().evaluations);
  EXPECT_EQ(second->stats().schedule_seconds, 0.0);  // nothing recomputed
}

TEST(EvalCacheTest, CandidateKeyStableAcrossEvaluatorsAndConfigs) {
  Fixture f(arch::make_figure4_chip(), 4);
  ASSERT_EQ(f.pool.size(), 4u);
  ASSERT_EQ(f.dft_count(1), f.dft_count(2));
  ThreadPool pool(1);
  const auto one = f.make_evaluator(pool);
  const auto two = f.make_evaluator(pool);
  const SharingScheme a = f.uniform_scheme(1, 0);
  const SharingScheme b = f.uniform_scheme(1, 1);
  EXPECT_EQ(one->candidate_key(1, a), two->candidate_key(1, a));
  EXPECT_FALSE(one->candidate_key(1, a) == one->candidate_key(1, b));
  // Same partner vector on a different configuration: distinct keys (the
  // old (config, partner) key's collision-prone spot).
  EXPECT_FALSE(one->candidate_key(1, a) == one->candidate_key(2, a));
}

}  // namespace
}  // namespace mfd::core
