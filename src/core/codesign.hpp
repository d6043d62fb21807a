// Design-for-testability codesign engine (the paper's main contribution).
//
// Given a chip and the bioassay it runs, the engine:
//   1. augments the chip with DFT channels/valves so that a single pressure
//      source and a single pressure meter suffice for testing (Section 3,
//      ILP over the virtual connection grid);
//   2. assigns every DFT valve a shared control channel of an original valve
//      so no new control port is needed (Section 4);
//   3. searches configurations and sharing schemes with a two-level PSO,
//      scoring each candidate by the assay's execution time on the augmented
//      chip and rejecting candidates whose sharing breaks the test vectors
//      or the schedule (Section 4.2).
//
// Implementation note: the outer level explores DFT configurations from a
// pool enumerated up front by re-solving the augmentation ILP under no-good
// cuts (each solve excludes all previously found configurations). This keeps
// the number of ILP solves bounded while the PSO still searches the same
// space of near-minimal configurations the paper's outer particles do.
#pragma once

#include <optional>

#include "arch/biochip.hpp"
#include "common/run_control.hpp"
#include "core/evaluation.hpp"
#include "pso/pso.hpp"
#include "sched/scheduler.hpp"
#include "testgen/path_ilp.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::core {

/// Gives every DFT valve its own dedicated control channel (the
/// "independent control ports available" scenario of Section 2 / Figure 7).
arch::Biochip with_dedicated_controls(const arch::Biochip& augmented);

/// Every stage (path planning, scheduling, vector generation) runs with its
/// default options; the inner (valve sharing) swarm is fixed at 5 particles
/// x 2 iterations (see run_codesign).
struct CodesignOptions {
  /// Number of distinct DFT configurations enumerated for the outer level.
  int config_pool_size = 4;
  /// Outer PSO swarm (paper: 5 particles, 100 iterations total).
  int outer_particles = 5;
  int outer_iterations = 100;
  /// Random-scheme attempts for the "DFT without PSO" baseline.
  int unoptimized_attempts = 200;
  std::uint64_t seed = 2024;
  /// Total evaluation threads (workers + the calling thread) for the batched
  /// fitness pipeline; 0 uses the hardware concurrency, 1 runs the exact
  /// serial pipeline. Results are bit-identical for every value.
  int threads = 0;
  /// Optional deadline/cancellation handle and tracer, borrowed for the run.
  /// Stops are polled only at serial synchronization points, so a truncated
  /// run is reproducible given the same cut-off point. Null disables both.
  const RunControl* control = nullptr;
  /// Optional shared fitness cache, borrowed for the run and injected into
  /// the Evaluator (see core/fitness_cache.hpp). The service layer passes
  /// one per batch so jobs over the same chip × assay reuse each other's
  /// evaluations; null keeps the run's cache private, as in standalone use.
  FitnessCache* cache = nullptr;

  /// Checks every field and reports all violations in one Status (stage
  /// "options", outcome kInvalidOptions); Ok() when the options are usable.
  [[nodiscard]] Status validate() const;
};

struct CodesignResult {
  /// How the run ended. `status.outcome` is kOk for a complete run;
  /// kDeadlineExceeded / kCancelled mark a truncated run that still carries
  /// the best artifacts found so far (when any scheme had been validated
  /// before the stop); kInfeasible / kInvalidOptions carry no artifacts.
  Status status;
  [[nodiscard]] bool ok() const { return status.ok(); }

  /// Canonical ILP configuration (pool entry 0) and the full pool.
  testgen::PathPlan plan;
  std::vector<testgen::PathPlan> pool;
  /// Index into `pool` of the configuration the PSO selected.
  int chosen_config = 0;

  /// Final augmented chip with the optimized sharing applied, and its
  /// schedule. Present whenever a valid sharing scheme was found — also on
  /// deadline/cancel stops that happened after the first valid scheme.
  std::optional<arch::Biochip> chip;
  std::optional<sched::Schedule> schedule;
  SharingScheme sharing;
  testgen::TestSuite tests;

  /// Execution times (seconds): original chip; augmented chip with the first
  /// valid random sharing (no PSO); with the PSO-optimized sharing; with
  /// dedicated control ports for every DFT valve.
  double exec_original = 0.0;
  double exec_dft_unoptimized = 0.0;
  double exec_dft_optimized = 0.0;
  double exec_dft_independent = 0.0;

  /// Best execution time after each outer PSO iteration (Figure 9).
  std::vector<double> convergence;

  int dft_valve_count = 0;
  int shared_valve_count = 0;
  double runtime_seconds = 0.0;
  /// Pipeline counters and stage timings (identical for every thread count
  /// with a fixed seed, wall times excepted).
  EvalStats stats;
  /// Evaluation threads actually used (resolved from CodesignOptions::threads).
  int threads_used = 1;
};

/// Enumerates up to `max_configs` distinct near-minimal DFT configurations
/// by repeatedly solving the augmentation ILP under no-good cuts. The first
/// entry is the canonical minimum; later entries may add one or two more
/// channels. Stops early when no further configuration exists.
std::vector<testgen::PathPlan> enumerate_dft_configurations(
    const arch::Biochip& chip, int max_configs,
    testgen::PathPlanOptions options = {});

/// Runs the full codesign flow. With `options.control` set, a deadline or
/// cancellation unwinds the pipeline at the next serial synchronization
/// point and the result comes back tagged kDeadlineExceeded / kCancelled
/// with the best-so-far artifacts; rerunning with the same seed and the same
/// cut-off point reproduces the truncated result exactly.
CodesignResult run_codesign(const arch::Biochip& chip,
                            const sched::Assay& assay,
                            const CodesignOptions& options = {});

}  // namespace mfd::core
