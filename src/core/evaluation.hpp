// Memoizing, parallel fitness evaluation for the codesign engine.
//
// One (DFT configuration, valve-sharing scheme) candidate is scored by
// scheduling the assay on the shared chip and regenerating the test suite
// (Section 4.1/4.2's validations). Candidates recur heavily during the
// two-level PSO — sub-swarms revisit sharing vectors that decode to the same
// scheme — so every result is memoized, keyed by a stable 128-bit content
// hash of everything that determines it: the augmented chip's structure, the
// assay, the scheduling/vector-generation options, the ILP path plan, and
// the canonical sharing vector (see common/hash.hpp).
//
// The cache has two tiers:
//   * a private per-evaluator map — the default, and the source of the
//     deterministic `cache_hits` counter: it only ever holds keys this
//     evaluator has itself resolved, so its hits cannot depend on what other
//     jobs happen to have computed;
//   * an optional shared core::FitnessCache injected via EvaluatorOptions
//     (typically one per service batch, possibly disk-backed). A shared-tier
//     hit skips the recompute but — because the evaluation is a pure
//     function of the content-hashed inputs — yields bit-identical values,
//     and the logical counters (evaluations, scheduler_runs, testgen_runs)
//     advance exactly as if the work had run. Only the non-serialized
//     EvalStats::shared_hits counter records the physical saving, which is
//     what keeps per-job results byte-identical with the shared cache on,
//     off, or pre-warmed.
//
// Batches are evaluated in three phases so the outcome is independent of the
// thread count:
//   1. serially resolve both cache tiers and in-batch duplicates (in batch
//      order) — this fixes every counter before any worker runs;
//   2. compute the unique misses on the thread pool, each runner using its
//      own sched::EvaluationContext (the evaluation itself is a pure
//      function of the candidate: scheduler and vector generator are seeded
//      from the options, never from shared state);
//   3. serially publish the results into both tiers and fill the outputs.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "arch/biochip.hpp"
#include "common/eval_stats.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "core/fitness_cache.hpp"
#include "sched/scheduler.hpp"
#include "testgen/path_ilp.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::core {

/// A valve-sharing scheme: for each DFT valve (in valve-id order), the
/// original valve whose control channel it shares. The partner vector is
/// already canonical (one entry per DFT valve, fixed order), so it doubles
/// as the memoization key.
struct SharingScheme {
  std::vector<arch::ValveId> partner;

  [[nodiscard]] bool operator==(const SharingScheme&) const = default;
};

/// Outcome of evaluating one (configuration, sharing scheme) candidate.
struct Evaluation {
  /// Execution time of the assay, or +infinity when the candidate fails
  /// either validation.
  double makespan = std::numeric_limits<double>::infinity();
  /// The assay could be scheduled under the sharing scheme.
  bool schedule_ok = false;
  /// A complete test suite exists under the sharing scheme.
  bool tests_ok = false;
  /// A RunControl stop was observed while (or before) this candidate was
  /// computed: the value is not trustworthy and is never memoized (in either
  /// tier), so a truncated run's cache holds only deterministic entries.
  bool aborted = false;
};

/// Everything an Evaluator needs. The referenced assay and thread pool (and
/// every configuration added later) must outlive the evaluator; control and
/// cache are borrowed too, and both are optional. Candidates are scheduled
/// and their vectors generated with the stages' default options.
struct EvaluatorOptions {
  /// Required: the bioassay being scheduled.
  const sched::Assay* assay = nullptr;
  /// Required: workers for evaluate_batch().
  ThreadPool* pool = nullptr;
  /// Optional cooperative deadline/cancel, threaded into the scheduler and
  /// testgen runs so a stop aborts in-flight evaluations.
  const RunControl* control = nullptr;
  /// Optional shared fitness cache (one per service batch, possibly
  /// disk-backed). nullptr — the default — keeps the evaluator fully
  /// private, reproducing standalone behavior exactly.
  FitnessCache* cache = nullptr;
};

/// Thread-safe memoizing evaluator over a pool of DFT configurations.
/// evaluate()/evaluate_batch() may be called from one thread at a time (the
/// optimizer loop); parallelism happens inside evaluate_batch(), which farms
/// cache misses out to the pool.
class Evaluator {
 public:
  explicit Evaluator(const EvaluatorOptions& options);

  void add_config(const arch::Biochip& augmented,
                  const testgen::PathPlan& plan);

  [[nodiscard]] int config_count() const {
    return static_cast<int>(configs_.size());
  }
  [[nodiscard]] const arch::Biochip& config(int index) const {
    return *configs_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const testgen::PathPlan& plan(int index) const {
    return *plans_[static_cast<std::size_t>(index)];
  }

  /// The stable content-hash key of one candidate — what both cache tiers
  /// key on. Exposed for tests and tooling.
  [[nodiscard]] Hash128 candidate_key(int config_index,
                                      const SharingScheme& scheme) const;

  /// Scores one candidate, serving it from the cache tiers when possible.
  Evaluation evaluate(int config_index, const SharingScheme& scheme);

  /// Scores a whole batch: makespans[i] receives the score of schemes[i].
  /// Unique cache misses are computed in parallel on the pool; results,
  /// counters and the cache contents are identical for every thread count.
  void evaluate_batch(int config_index, std::span<const SharingScheme> schemes,
                      std::span<double> makespans);

  /// Cumulative counters (merged across workers after every batch).
  [[nodiscard]] const EvalStats& stats() const { return stats_; }
  [[nodiscard]] EvalStats& stats() { return stats_; }

 private:
  /// Uncached evaluation: schedule, then (if feasible) regenerate vectors.
  /// Pure function of the candidate; `slot` picks the scratch context.
  Evaluation compute(int config_index, const SharingScheme& scheme,
                     std::size_t slot, EvalStats& stats);

  /// Probes the shared tier; on a hit reconstructs the evaluation, caches it
  /// privately and advances the logical counters as if it had been computed.
  [[nodiscard]] bool probe_shared(const Hash128& key, Evaluation* out);

  /// Publishes a freshly computed, non-aborted evaluation to both tiers.
  void publish(const Hash128& key, const Evaluation& eval);

  const sched::Assay& assay_;
  ThreadPool& pool_;
  const RunControl* control_ = nullptr;
  FitnessCache* shared_cache_ = nullptr;

  std::vector<const arch::Biochip*> configs_;
  std::vector<const testgen::PathPlan*> plans_;
  /// Partially fed content hasher per configuration: assay + options + chip
  /// + plan, missing only the sharing vector. Forked per candidate.
  std::vector<ContentHasher> config_prefix_;

  /// One scheduler scratch context and stats block per pool slot.
  std::vector<sched::EvaluationContext> contexts_;
  std::vector<EvalStats> slot_stats_;

  /// Private tier: everything this evaluator has resolved itself.
  std::unordered_map<Hash128, Evaluation, Hash128Hasher> cache_;
  EvalStats stats_;
};

/// Applies a sharing scheme to a copy of the augmented chip. The chip's DFT
/// valves must be control-less; `partner` entries must reference original
/// (non-DFT) valves.
arch::Biochip apply_sharing(const arch::Biochip& augmented,
                            const SharingScheme& scheme);

}  // namespace mfd::core
