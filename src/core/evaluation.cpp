#include "core/evaluation.hpp"

#include "arch/serialize.hpp"
#include "common/error.hpp"

namespace mfd::core {

namespace {

/// Everything shared by every configuration of one evaluator: the assay
/// structure and the option fields that influence schedule or test-suite
/// results. Candidates always run with the stages' default options; those
/// are still mixed in, so keys match the cache segments earlier builds
/// persisted. The control is excluded on purpose — it affects truncation
/// (never cached), not values.
ContentHasher base_hasher(const sched::Assay& assay) {
  const sched::ScheduleOptions sched;
  const testgen::VectorGenOptions vectors;
  ContentHasher h;
  h.mix_bytes(assay.name());
  h.mix_int(assay.operation_count());
  for (const sched::Operation& op : assay.operations()) {
    h.mix_int(static_cast<int>(op.kind));
    h.mix_double(op.duration);
    h.mix_bytes(op.name);
  }
  const graph::Digraph& dag = assay.dag();
  for (graph::NodeId n = 0; n < dag.node_count(); ++n) {
    h.mix_vector(dag.successors(n));
  }

  h.mix_double(sched.transport_time_per_edge);
  h.mix_int(sched.route_retries);
  h.mix_int(sched.detour_tolerance);
  h.mix_double(sched.time_limit);
  h.mix(sched.seed);

  h.mix_int(vectors.attempts_per_fault);
  h.mix(vectors.seed);
  h.mix_bool(vectors.use_bulk_cuts);
  return h;
}

}  // namespace

Evaluator::Evaluator(const EvaluatorOptions& options)
    : assay_(*options.assay),
      pool_(*options.pool),
      control_(options.control),
      shared_cache_(options.cache),
      contexts_(static_cast<std::size_t>(options.pool->thread_count())),
      slot_stats_(static_cast<std::size_t>(options.pool->thread_count())) {
  MFD_REQUIRE(options.assay != nullptr, "EvaluatorOptions::assay is required");
  MFD_REQUIRE(options.pool != nullptr, "EvaluatorOptions::pool is required");
}

void Evaluator::add_config(const arch::Biochip& augmented,
                           const testgen::PathPlan& plan) {
  configs_.push_back(&augmented);
  plans_.push_back(&plan);

  // The per-configuration key prefix: base (assay + options) extended with
  // the augmented chip's full structure and the path plan's content. Forked
  // and completed with the sharing vector by candidate_key().
  ContentHasher h = base_hasher(assay_);
  h.mix_bytes(arch::chip_to_string(augmented));
  h.mix_int(plan.source);
  h.mix_int(plan.meter);
  h.mix(plan.paths.size());
  for (const std::vector<graph::EdgeId>& path : plan.paths) {
    h.mix_vector(path);
  }
  h.mix_vector(plan.added_edges);
  config_prefix_.push_back(h);
}

Hash128 Evaluator::candidate_key(int config_index,
                                 const SharingScheme& scheme) const {
  ContentHasher h = config_prefix_[static_cast<std::size_t>(config_index)];
  h.mix_vector(scheme.partner);
  return h.digest();
}

Evaluation Evaluator::compute(int config_index, const SharingScheme& scheme,
                              std::size_t slot, EvalStats& stats) {
  const StageTimer total;
  Evaluation eval;
  const arch::Biochip shared = apply_sharing(config(config_index), scheme);
  {
    const StageTimer timer;
    const sched::Schedule schedule = sched::schedule_assay(
        shared, assay_, {.control = control_}, contexts_[slot]);
    stats.schedule_seconds += timer.seconds();
    ++stats.scheduler_runs;
    eval.schedule_ok = schedule.feasible;
    if (schedule.feasible) eval.makespan = schedule.makespan;
  }
  if (eval.schedule_ok) {
    // Testability check: vector generation (and its full-coverage recheck)
    // runs on the batch fault kernel — one subgraph analysis per candidate
    // vector instead of one BFS pair per (fault, vector).
    const StageTimer timer;
    const auto suite = testgen::generate_test_suite(
        shared, plan(config_index).source, plan(config_index).meter,
        {.plan = &plan(config_index), .control = control_});
    stats.testgen_seconds += timer.seconds();
    ++stats.testgen_runs;
    eval.tests_ok = suite.has_value();
  }
  if (!eval.tests_ok) {
    eval.makespan = std::numeric_limits<double>::infinity();
  }
  if (control_ != nullptr &&
      control_->stop_observed() != StopReason::kNone) {
    // A stop fired somewhere during this candidate (possibly on another
    // worker): the value may reflect an aborted schedule or test run.
    eval.aborted = true;
  }
  ++stats.evaluations;
  stats.eval_seconds += total.seconds();
  return eval;
}

bool Evaluator::probe_shared(const Hash128& key, Evaluation* out) {
  if (shared_cache_ == nullptr) return false;
  FitnessRecord record;
  if (!shared_cache_->get(key, &record)) return false;
  // The record is the pure-function outcome another evaluator computed for
  // exactly these content-hashed inputs. Serve it, remember it privately,
  // and advance the logical counters exactly as compute() would have — so
  // serialized results cannot tell a shared hit from a recompute.
  out->makespan = record.makespan;
  out->schedule_ok = record.schedule_ok;
  out->tests_ok = record.tests_ok;
  out->aborted = false;
  cache_.emplace(key, *out);
  ++stats_.shared_hits;
  ++stats_.evaluations;
  ++stats_.scheduler_runs;
  if (record.schedule_ok) ++stats_.testgen_runs;
  return true;
}

void Evaluator::publish(const Hash128& key, const Evaluation& eval) {
  cache_.emplace(key, eval);
  if (shared_cache_ != nullptr) {
    shared_cache_->put(
        key, FitnessRecord{eval.makespan, eval.schedule_ok, eval.tests_ok});
  }
}

Evaluation Evaluator::evaluate(int config_index, const SharingScheme& scheme) {
  const Hash128 key = candidate_key(config_index, scheme);
  if (const auto cached = cache_.find(key); cached != cache_.end()) {
    ++stats_.cache_hits;
    return cached->second;
  }
  Evaluation eval;
  if (probe_shared(key, &eval)) return eval;
  eval = compute(config_index, scheme, 0, stats_);
  if (eval.aborted) return eval;  // never memoize aborted work
  publish(key, eval);
  return eval;
}

void Evaluator::evaluate_batch(int config_index,
                               std::span<const SharingScheme> schemes,
                               std::span<double> makespans) {
  MFD_REQUIRE(schemes.size() == makespans.size(),
              "evaluate_batch(): one output slot per scheme required");

  // Phase 1 (serial, batch order): resolve private-tier hits, shared-tier
  // hits, and in-batch duplicates. Fixes every counter before any parallel
  // work starts, so the numbers cannot depend on the thread count — and a
  // shared hit's counter increments mirror compute()'s, so they cannot
  // depend on the cache configuration either.
  constexpr std::size_t kPending = static_cast<std::size_t>(-1);
  constexpr std::size_t kResolved = static_cast<std::size_t>(-2);
  std::vector<std::size_t> unique_of(schemes.size(), kPending);
  std::vector<std::size_t> unique_items;  // batch index of each unique miss
  std::vector<Hash128> unique_keys;
  std::unordered_map<Hash128, std::size_t, Hash128Hasher> batch_index;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const Hash128 key = candidate_key(config_index, schemes[i]);
    if (const auto cached = cache_.find(key); cached != cache_.end()) {
      makespans[i] = cached->second.makespan;
      unique_of[i] = kResolved;
      ++stats_.cache_hits;
      continue;
    }
    if (const auto seen = batch_index.find(key); seen != batch_index.end()) {
      // Duplicate within this batch: computed once, counted as a hit.
      unique_of[i] = seen->second;
      ++stats_.cache_hits;
      continue;
    }
    Evaluation eval;
    if (probe_shared(key, &eval)) {
      // probe_shared() cached the record privately, so later duplicates of
      // this key in the batch resolve as ordinary cache hits — exactly as
      // they would had the first occurrence been computed.
      makespans[i] = eval.makespan;
      unique_of[i] = kResolved;
      continue;
    }
    unique_of[i] = unique_items.size();
    batch_index.emplace(key, unique_items.size());
    unique_items.push_back(i);
    unique_keys.push_back(key);
  }

  // Phase 2 (parallel): compute the unique misses. Each runner owns the
  // scratch context and stats block of its slot, so no synchronization is
  // needed inside the loop.
  std::vector<Evaluation> results(unique_items.size());
  {
    const auto span =
        trace_span(tracer_of(control_), "eval_batch");
    trace_counter(tracer_of(control_), "batch_misses",
                  static_cast<std::int64_t>(unique_items.size()));
    pool_.parallel_for(unique_items.size(),
                       [&](std::size_t item, std::size_t slot) {
                         results[item] = compute(
                             config_index, schemes[unique_items[item]],
                             slot, slot_stats_[slot]);
                       });
  }
  for (EvalStats& slot : slot_stats_) {
    stats_ += slot;
    slot = EvalStats{};
  }

  // Phase 3 (serial, batch order): publish results to both tiers and fill
  // the outputs. Aborted evaluations are skipped: a stop mid-batch must not
  // leak timing-dependent values into the (otherwise deterministic) caches.
  for (std::size_t u = 0; u < unique_items.size(); ++u) {
    if (results[u].aborted) continue;
    publish(unique_keys[u], results[u]);
  }
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    if (unique_of[i] != kPending && unique_of[i] != kResolved) {
      makespans[i] = results[unique_of[i]].makespan;
    }
  }
}

}  // namespace mfd::core
