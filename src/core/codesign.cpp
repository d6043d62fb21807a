#include "core/codesign.hpp"

#include <algorithm>
#include <chrono>

#include "common/rng.hpp"

namespace mfd::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Original (non-DFT) valve ids of a chip, the sharing-partner candidates.
std::vector<arch::ValveId> original_valves(const arch::Biochip& chip) {
  std::vector<arch::ValveId> ids;
  for (arch::ValveId v = 0; v < chip.valve_count(); ++v) {
    if (!chip.valve(v).is_dft) ids.push_back(v);
  }
  return ids;
}

std::vector<arch::ValveId> dft_valves(const arch::Biochip& chip) {
  std::vector<arch::ValveId> ids;
  for (arch::ValveId v = 0; v < chip.valve_count(); ++v) {
    if (chip.valve(v).is_dft) ids.push_back(v);
  }
  return ids;
}

// Decodes an inner-PSO position into a sharing scheme for the given chip.
SharingScheme decode_sharing(const arch::Biochip& augmented,
                             const std::vector<double>& position) {
  const std::vector<arch::ValveId> originals = original_valves(augmented);
  SharingScheme scheme;
  scheme.partner.reserve(position.size());
  for (double coordinate : position) {
    scheme.partner.push_back(
        originals[static_cast<std::size_t>(pso::decode_index(
            coordinate, static_cast<int>(originals.size())))]);
  }
  return scheme;
}

}  // namespace

Status CodesignOptions::validate() const {
  Problems problems;
  problems.flag(config_pool_size < 1, "config_pool_size must be >= 1");
  problems.flag(outer_particles < 1, "outer_particles must be >= 1");
  problems.flag(outer_iterations < 1, "outer_iterations must be >= 1");
  problems.flag(unoptimized_attempts < 0, "unoptimized_attempts must be >= 0");
  problems.flag(threads < 0, "threads must be >= 0");
  return problems.status("options");
}

arch::Biochip apply_sharing(const arch::Biochip& augmented,
                            const SharingScheme& scheme) {
  arch::Biochip chip = augmented;
  const std::vector<arch::ValveId> dft = dft_valves(chip);
  MFD_REQUIRE(scheme.partner.size() == dft.size(),
              "apply_sharing(): one partner per DFT valve required");
  for (std::size_t i = 0; i < dft.size(); ++i) {
    const arch::ValveId partner = scheme.partner[i];
    MFD_REQUIRE(!chip.valve(partner).is_dft,
                "apply_sharing(): partner must be an original valve");
    chip.share_control(dft[i], partner);
  }
  return chip;
}

arch::Biochip with_dedicated_controls(const arch::Biochip& augmented) {
  arch::Biochip chip = augmented;
  for (arch::ValveId v = 0; v < chip.valve_count(); ++v) {
    if (chip.valve(v).is_dft && chip.valve(v).control == arch::kInvalidControl) {
      chip.assign_dedicated_control(v);
    }
  }
  return chip;
}

std::vector<testgen::PathPlan> enumerate_dft_configurations(
    const arch::Biochip& chip, int max_configs,
    testgen::PathPlanOptions options) {
  MFD_REQUIRE(max_configs >= 1,
              "enumerate_dft_configurations(): need at least one config");
  std::vector<testgen::PathPlan> pool;
  int min_count = -1;
  for (int round = 0; round < max_configs; ++round) {
    const testgen::PathPlan plan = testgen::plan_dft_paths(chip, options);
    if (!plan.feasible) break;
    if (plan.added_edges.empty()) {
      // Already single-source single-meter testable: unique configuration.
      pool.push_back(plan);
      break;
    }
    if (min_count == -1) {
      min_count = static_cast<int>(plan.added_edges.size());
    } else if (static_cast<int>(plan.added_edges.size()) > min_count + 2) {
      break;  // configurations getting too expensive; stop enumerating
    }
    options.forbidden_added_sets.push_back(plan.added_edges);
    pool.push_back(std::move(plan));
  }
  return pool;
}

CodesignResult run_codesign(const arch::Biochip& chip,
                            const sched::Assay& assay,
                            const CodesignOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  CodesignResult result;
  result.status = options.validate();
  if (!result.status.ok()) return result;

  const RunControl* const control = options.control;
  Tracer* const tracer = tracer_of(control);
  const auto run_span = trace_span(tracer, "codesign");

  // First stop observed at a serial synchronization point. Once set, the
  // pipeline unwinds; everything already computed stays in `result`.
  std::optional<Status> stop;
  auto check_stop = [&](const char* stage) {
    if (stop) return true;
    if (control == nullptr) return false;
    const StopReason reason = control->check();
    if (reason == StopReason::kNone) return false;
    stop = Status::Fail(outcome_of(reason), stage,
                        reason == StopReason::kCancelled
                            ? "run cancelled"
                            : "deadline exceeded");
    return true;
  };

  // Baseline schedules and the final artifact assembly run outside the
  // evaluator; their scheduler/testgen executions are attributed here.
  EvalStats baseline;

  // Stage options with the control threaded in, so a stop aborts in-flight
  // baseline work too. The final assembly deliberately uses plain default
  // options: it regenerates already-validated artifacts and must not be
  // truncated.
  const sched::ScheduleOptions sched_opts{.control = control};
  testgen::PathPlanOptions plan_opts;
  plan_opts.control = control;

  if (check_stop("start")) {
    result.status = *stop;
    result.runtime_seconds = elapsed();
    return result;
  }

  // Baseline: the unmodified chip.
  const sched::Schedule original_schedule = [&] {
    const auto span = trace_span(tracer, "baseline_schedule");
    const StageTimer timer;
    sched::Schedule schedule = sched::schedule_assay(chip, assay, sched_opts);
    baseline.schedule_seconds += timer.seconds();
    ++baseline.scheduler_runs;
    return schedule;
  }();
  if (check_stop("baseline_schedule")) {
    result.status = *stop;
    result.stats = baseline;
    result.runtime_seconds = elapsed();
    return result;
  }
  if (!original_schedule.feasible) {
    result.status =
        Status::Fail(Outcome::kInfeasible, "baseline_schedule",
                     "assay cannot be scheduled on the original chip");
    result.stats = baseline;
    result.runtime_seconds = elapsed();
    return result;
  }
  result.exec_original = original_schedule.makespan;

  // DFT configurations (outer search space).
  {
    const auto span = trace_span(tracer, "enumerate_configurations");
    result.pool = enumerate_dft_configurations(
        chip, options.config_pool_size, plan_opts);
    trace_counter(tracer, "config_pool",
                  static_cast<std::int64_t>(result.pool.size()));
    trace_counter(
        tracer, "fallback_plans",
        static_cast<std::int64_t>(std::count_if(
            result.pool.begin(), result.pool.end(),
            [](const testgen::PathPlan& p) {
              return p.method == testgen::PathPlan::Method::kGreedyFallback;
            })));
  }
  if (check_stop("enumerate_configurations")) {
    // Degrade gracefully: a deadline during enumeration may still have
    // produced usable plans (possibly via the greedy fallback); keep the
    // best-so-far artifacts alongside the stop status.
    result.status = *stop;
    if (!result.pool.empty()) {
      result.plan = result.pool.front();
      result.dft_valve_count =
          static_cast<int>(result.plan.added_edges.size());
    }
    result.stats = baseline;
    result.runtime_seconds = elapsed();
    return result;
  }
  if (result.pool.empty()) {
    result.status = Status::Fail(
        Outcome::kInfeasible, "enumerate_configurations",
        "no single-source single-meter configuration found within |P| limit");
    result.stats = baseline;
    result.runtime_seconds = elapsed();
    return result;
  }
  result.plan = result.pool.front();
  result.dft_valve_count =
      static_cast<int>(result.plan.added_edges.size());

  std::vector<arch::Biochip> augmented;
  augmented.reserve(result.pool.size());
  for (const testgen::PathPlan& plan : result.pool) {
    augmented.push_back(testgen::apply_plan(chip, plan));
  }

  // Figure 7 baseline: DFT valves with their own control ports.
  {
    const auto span = trace_span(tracer, "independent_schedule");
    const sched::Schedule independent_schedule = sched::schedule_assay(
        with_dedicated_controls(augmented.front()), assay, sched_opts);
    ++baseline.scheduler_runs;
    result.exec_dft_independent = independent_schedule.feasible
                                      ? independent_schedule.makespan
                                      : kInf;
  }
  if (check_stop("independent_schedule")) {
    result.status = *stop;
    result.stats = baseline;
    result.runtime_seconds = elapsed();
    return result;
  }

  ThreadPool pool(options.threads == 0 ? ThreadPool::hardware_threads()
                                       : options.threads);
  result.threads_used = pool.thread_count();
  Evaluator evaluator(EvaluatorOptions{.assay = &assay,
                                       .pool = &pool,
                                       .control = control,
                                       .cache = options.cache});
  for (std::size_t i = 0; i < augmented.size(); ++i) {
    evaluator.add_config(augmented[i], result.pool[i]);
  }

  const int n_dft = result.dft_valve_count;

  auto finalize_stats = [&] {
    result.stats = evaluator.stats();
    result.stats += baseline;
  };

  // "DFT without PSO": the first randomly drawn sharing scheme that passes
  // both validations on the canonical configuration.
  {
    const auto span = trace_span(tracer, "unoptimized_search");
    Rng rng(options.seed ^ 0x5eedu);
    const std::vector<arch::ValveId> originals =
        original_valves(augmented.front());
    result.exec_dft_unoptimized = kInf;
    for (int attempt = 0; attempt < options.unoptimized_attempts; ++attempt) {
      // Checked before the RNG draw, so the attempt sequence up to the
      // cut-off is the same as in an unbounded run.
      if (check_stop("unoptimized_search")) break;
      SharingScheme scheme;
      for (int i = 0; i < n_dft; ++i) {
        scheme.partner.push_back(
            originals[rng.index(originals.size())]);
      }
      const Evaluation eval = evaluator.evaluate(0, scheme);
      if (!eval.aborted && eval.makespan < kInf) {
        result.exec_dft_unoptimized = eval.makespan;
        break;
      }
    }
  }
  if (stop) {
    result.status = *stop;
    finalize_stats();
    result.runtime_seconds = elapsed();
    return result;
  }

  // Two-level PSO (Section 4.2). An outer particle's position is
  // X = [X^a | X^s]: a continuous selector whose argmax picks the DFT
  // configuration, concatenated with the valve-sharing coordinates. Each
  // outer evaluation runs a short sub-PSO over sharing schemes seeded at the
  // particle's current X^s (paper step (2)); the sub-PSO's best X^s is
  // written back into the particle (step (3)), so sharing quality improves
  // across outer iterations and Figure 9's convergence emerges.
  //
  // The outer loop itself stays serial (it owns the RNG streams and the
  // inner-seed sequence); parallelism lives inside the inner sub-swarm's
  // batched fitness evaluation.
  //
  // The sub-swarm has the paper's 5 particles and runs two iterations per
  // outer evaluation: it is warm-started at the outer particle's current
  // sharing vector, so refinement accumulates across outer iterations. The
  // outer velocity update uses pso's coefficients with a looser clamp.
  constexpr int kInnerParticles = 5;
  constexpr int kInnerIterations = 2;
  constexpr double kOuterVmax = 0.3;
  const int pool_size = evaluator.config_count();
  int max_dft = 0;
  for (int c = 0; c < pool_size; ++c) {
    max_dft = std::max(
        max_dft, static_cast<int>(evaluator.plan(c).added_edges.size()));
  }
  const std::size_t selector_dims = static_cast<std::size_t>(pool_size);
  const std::size_t dims = selector_dims + static_cast<std::size_t>(max_dft);

  Rng outer_rng(options.seed);
  struct OuterParticle {
    std::vector<double> position;
    std::vector<double> velocity;
    std::vector<double> best_position;
    double best_value = kInf;
  };
  std::vector<OuterParticle> swarm(
      static_cast<std::size_t>(options.outer_particles));
  std::vector<double> global_best_position;
  double global_best = kInf;
  SharingScheme best_scheme;
  int best_config = 0;

  std::uint64_t inner_seed = options.seed * 7919u + 13u;
  std::vector<SharingScheme> batch_schemes;
  auto outer_evaluate = [&](OuterParticle& particle) {
    const auto selector_begin = particle.position.begin();
    const int config_index =
        pool_size == 1
            ? 0
            : static_cast<int>(std::max_element(
                                   selector_begin,
                                   selector_begin +
                                       static_cast<std::ptrdiff_t>(
                                           selector_dims)) -
                               selector_begin);
    const int config_dft = static_cast<int>(
        evaluator.plan(config_index).added_edges.size());

    // Sub-PSO over X^s, warm-started at the particle's current X^s. The
    // whole sub-swarm is scored per iteration as one batch, which the
    // evaluator spreads over the thread pool.
    std::vector<double> sharing_seed(
        particle.position.begin() +
            static_cast<std::ptrdiff_t>(selector_dims),
        particle.position.begin() +
            static_cast<std::ptrdiff_t>(selector_dims + config_dft));
    const pso::PsoOptions inner{.particles = kInnerParticles,
                                .iterations = kInnerIterations,
                                .seed = inner_seed++,
                                .control = control};
    const pso::PsoResult inner_result = pso::minimize(
        config_dft,
        [&](std::span<const std::vector<double>> positions,
            std::span<double> values) {
          batch_schemes.clear();
          for (const std::vector<double>& inner_position : positions) {
            batch_schemes.push_back(decode_sharing(
                evaluator.config(config_index), inner_position));
          }
          evaluator.evaluate_batch(config_index, batch_schemes, values);
        },
        inner, {sharing_seed});
    ++evaluator.stats().outer_evaluations;
    evaluator.stats().inner_evaluations += inner_result.evaluations;

    if (inner_result.stopped_early) {
      // A stop fired inside the sub-swarm: which of its batch entries
      // aborted is timing-dependent, so the whole inner result is discarded
      // — the truncated run's bests come only from completed evaluations.
      return kInf;
    }

    // Step (3): adopt the sub-PSO's best sharing vector.
    if (!inner_result.best_position.empty()) {
      std::copy(inner_result.best_position.begin(),
                inner_result.best_position.end(),
                particle.position.begin() +
                    static_cast<std::ptrdiff_t>(selector_dims));
    }
    if (inner_result.best_value < global_best) {
      global_best = inner_result.best_value;
      best_scheme = decode_sharing(evaluator.config(config_index),
                                   inner_result.best_position);
      best_config = config_index;
    }
    return inner_result.best_value;
  };

  {
    const auto span = trace_span(tracer, "outer_iteration");
    for (OuterParticle& particle : swarm) {
      if (check_stop("outer_pso")) break;
      particle.position.resize(dims);
      particle.velocity.assign(dims, 0.0);
      for (double& x : particle.position) x = outer_rng.uniform();
      particle.best_value = outer_evaluate(particle);
      particle.best_position = particle.position;
      if (particle.best_value <= global_best) {
        global_best_position = particle.position;
      }
    }
  }
  if (!stop) {
    result.convergence.push_back(global_best);
    trace_counter(tracer, "outer_best_x1000",
                  global_best == kInf
                      ? -1
                      : static_cast<std::int64_t>(global_best * 1000.0));
    if (control != nullptr) {
      control->report_progress(
          {"outer_pso", 1, options.outer_iterations, global_best});
    }
  }

  for (int iteration = 1;
       !stop && iteration < options.outer_iterations; ++iteration) {
    const auto span = trace_span(tracer, "outer_iteration");
    for (OuterParticle& particle : swarm) {
      // Checked before the velocity update so no RNG draws are consumed for
      // a particle that will not be evaluated.
      if (check_stop("outer_pso")) break;
      for (std::size_t d = 0; d < dims; ++d) {
        double v = pso::kOmega * particle.velocity[d] +
                   pso::kC1 * outer_rng.uniform() *
                       (particle.best_position[d] - particle.position[d]);
        if (!global_best_position.empty()) {
          v += pso::kC2 * outer_rng.uniform() *
               (global_best_position[d] - particle.position[d]);
        }
        particle.velocity[d] = std::clamp(v, -kOuterVmax, kOuterVmax);
        particle.position[d] =
            std::clamp(particle.position[d] + particle.velocity[d], 0.0, 1.0);
      }
      const double value = outer_evaluate(particle);
      if (value < particle.best_value) {
        particle.best_value = value;
        particle.best_position = particle.position;
      }
      if (value <= global_best) {
        global_best_position = particle.position;
      }
    }
    if (stop) break;
    result.convergence.push_back(global_best);
    trace_counter(tracer, "outer_best_x1000",
                  global_best == kInf
                      ? -1
                      : static_cast<std::int64_t>(global_best * 1000.0));
    if (control != nullptr) {
      control->report_progress({"outer_pso", iteration + 1,
                                options.outer_iterations, global_best});
    }
  }

  if (global_best == kInf) {
    // Nothing valid found: on a stop that is the stop's fault, otherwise the
    // search space genuinely holds no valid sharing scheme.
    result.status = stop ? *stop
                         : Status::Fail(Outcome::kInfeasible, "outer_pso",
                                        "no valid valve-sharing scheme found");
    finalize_stats();
    result.runtime_seconds = elapsed();
    return result;
  }

  // Assemble the final artifacts from the best candidate (best-so-far when
  // stopped). The regeneration runs without the control: the scheme already
  // passed both validations, so this is deterministic replay, not search.
  {
    const auto span = trace_span(tracer, "assemble");
    result.chosen_config = best_config;
    result.plan = result.pool[static_cast<std::size_t>(best_config)];
    result.dft_valve_count =
        static_cast<int>(result.plan.added_edges.size());
    result.shared_valve_count = result.dft_valve_count;
    result.sharing = best_scheme;
    result.chip = apply_sharing(
        augmented[static_cast<std::size_t>(best_config)], best_scheme);
    result.exec_dft_optimized = global_best;
    result.schedule = sched::schedule_assay(*result.chip, assay);
    ++baseline.scheduler_runs;
    auto suite = testgen::generate_test_suite(
        *result.chip, result.plan.source, result.plan.meter,
        {.plan = &result.plan});
    ++baseline.testgen_runs;
    MFD_ASSERT(suite.has_value(),
               "optimized sharing scheme failed final test regeneration");
    result.tests = std::move(*suite);
  }
  result.status = stop ? *stop : Status::Ok();
  finalize_stats();
  result.runtime_seconds = elapsed();
  return result;
}

}  // namespace mfd::core
