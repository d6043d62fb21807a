#include "svc/run_job.hpp"

#include <optional>
#include <utility>

#include "arch/chips.hpp"
#include "arch/serialize.hpp"
#include "core/codesign.hpp"
#include "sched/serialize.hpp"
#include "sim/diagnosis.hpp"
#include "sim/pressure.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::svc {

namespace {

arch::Biochip build_chip(const JobSpec& spec) {
  if (!spec.chip_text.empty()) return arch::chip_from_string(spec.chip_text);
  if (const auto* named = find_named(arch::kNamedChips, spec.chip)) {
    return named->make();
  }
  throw Error("run_job(): unknown chip '" + spec.chip + "'");
}

sched::Assay build_assay(const JobSpec& spec) {
  if (!spec.assay_text.empty()) {
    return sched::assay_from_string(spec.assay_text);
  }
  if (const auto* named = find_named(sched::kNamedAssays, spec.assay)) {
    return named->make();
  }
  throw Error("run_job(): unknown assay '" + spec.assay + "'");
}

/// The cached value for `key`, built outside the lock on a miss (`build`
/// can be slow: chip_text can be large). The first value stored stays; a
/// racing second build is dropped (both built the same deterministic
/// value).
template <typename T, typename Build>
T cached(std::mutex& mutex,
         std::unordered_map<Hash128, T, Hash128Hasher>& values,
         const Hash128& key, Build build) {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = values.find(key);
    if (it != values.end()) return it->second;
  }
  T value = build();
  const std::lock_guard<std::mutex> lock(mutex);
  return values.emplace(key, std::move(value)).first->second;
}

/// A named source and an inline text of the same bytes are distinct keys
/// (their parse paths differ).
Hash128 source_key(const std::string& name, const std::string& text) {
  ContentHasher hasher;
  hasher.mix_bool(!text.empty());
  hasher.mix_bytes(!text.empty() ? text : name);
  return hasher.digest();
}

sim::FaultUniverse resolve_universe(const JobSpec& spec) {
  return spec.universe == "stuck_at_leakage"
             ? sim::FaultUniverse::kStuckAtAndLeakage
             : sim::FaultUniverse::kStuckAt;
}

void run_codesign_job(const JobSpec& spec, const arch::Biochip& chip,
                      const sched::Assay& assay, const RunControl* control,
                      core::FitnessCache* cache, JobResult& result) {
  core::CodesignOptions options;
  options.outer_iterations = spec.outer_iterations;
  options.outer_particles = spec.outer_particles;
  options.config_pool_size = spec.config_pool_size;
  options.threads = spec.threads;
  options.seed = spec.seed;
  options.control = control;
  options.cache = cache;
  const core::CodesignResult r = core::run_codesign(chip, assay, options);
  result.status = r.status;
  result.dft_valves = r.dft_valve_count;
  result.shared_valves = r.shared_valve_count;
  result.exec_original = r.exec_original;
  result.exec_dft_unoptimized = r.exec_dft_unoptimized;
  result.exec_dft_optimized = r.exec_dft_optimized;
  result.stats = r.stats;
  // Zero the wall-clock members: serialized results must be identical for
  // every thread count and machine.
  result.stats.schedule_seconds = 0.0;
  result.stats.testgen_seconds = 0.0;
  result.stats.eval_seconds = 0.0;
  if (r.chip.has_value()) {
    result.chip_text = arch::chip_to_string(*r.chip);
  }
  if (r.schedule.has_value()) {
    result.makespan = r.schedule->makespan;
  }
}

/// Shared front half of testgen/coverage/diagnosis jobs: the multiport test
/// suite of the chip as-is, taken from `suites` when the batch stored it.
/// Returns null (with result.status set) when generation stopped or found
/// the chip untestable; neither is stored.
std::shared_ptr<const testgen::TestSuite> generate_suite(
    const JobSpec& spec, const Hash128& chip_hash, const arch::Biochip& chip,
    const RunControl* control, SuiteMemo* suites, JobResult& result) {
  const Hash128 key = suite_key(chip_hash, spec.seed);
  if (suites != nullptr) {
    if (auto suite = suites->take(key)) return suite;
  }
  testgen::VectorGenOptions options;
  options.seed = spec.seed;
  options.control = control;
  std::optional<testgen::TestSuite> generated =
      testgen::generate_test_suite_multiport(chip, options);
  if (generated.has_value()) {
    auto suite =
        std::make_shared<const testgen::TestSuite>(std::move(*generated));
    if (suites != nullptr) suites->put(key, suite);
    return suite;
  }
  const StopReason stop =
      control != nullptr ? control->stop_observed() : StopReason::kNone;
  if (stop != StopReason::kNone) {
    result.status = Status::Fail(outcome_of(stop), "testgen",
                                 "stopped during test-suite generation");
  } else {
    result.status = Status::Fail(Outcome::kInfeasible, "testgen",
                                 "no complete multiport test suite exists");
  }
  return nullptr;
}

void run_testgen_job(const testgen::TestSuite& suite, JobResult& result) {
  result.vectors = suite.size();
  result.path_vectors = suite.path_vector_count();
  result.cut_vectors = suite.cut_vector_count();
  result.total_faults = suite.coverage.total_faults;
  result.detected_faults = suite.coverage.detected_faults;
}

void run_coverage_job(const JobSpec& spec, const arch::Biochip& chip,
                      const testgen::TestSuite& suite,
                      const RunControl* control, JobResult& result) {
  const sim::CoverageReport report = sim::evaluate_coverage(
      chip, suite.vectors, resolve_universe(spec), control);
  const StopReason stop =
      control != nullptr ? control->stop_observed() : StopReason::kNone;
  if (stop != StopReason::kNone) {
    result.status = Status::Fail(outcome_of(stop), "coverage",
                                 "stopped during coverage evaluation");
    return;
  }
  result.vectors = suite.size();
  result.total_faults = report.total_faults;
  result.detected_faults = report.detected_faults;
}

void run_diagnosis_job(const JobSpec& spec, const arch::Biochip& chip,
                       const testgen::TestSuite& suite, JobResult& result) {
  const sim::DiagnosisTable table = sim::build_diagnosis_table(
      chip, suite.vectors, resolve_universe(spec));
  result.vectors = suite.size();
  result.total_faults = static_cast<int>(table.signature_of_fault.size());
  result.distinct_signatures = table.distinct_signatures();
  result.ambiguous_faults = table.ambiguous_faults();
  result.undetected_faults = table.undetected_faults();
  result.resolution = table.resolution();
}

}  // namespace

Hash128 chip_key(const JobSpec& spec) {
  return source_key(spec.chip, spec.chip_text);
}

Hash128 suite_key(const Hash128& chip, std::uint64_t seed) {
  ContentHasher hasher;
  hasher.mix(chip.hi);
  hasher.mix(chip.lo);
  hasher.mix(seed);
  return hasher.digest();
}

arch::Biochip JobContext::chip_for(const JobSpec& spec, const Hash128& key) {
  return cached(mutex_, chips_, key, [&spec] { return build_chip(spec); });
}

sched::Assay JobContext::assay_for(const JobSpec& spec) {
  return cached(mutex_, assays_, source_key(spec.assay, spec.assay_text),
                [&spec] { return build_assay(spec); });
}

void SuiteMemo::expect(const JobSpec& spec) {
  if (spec.kind == JobKind::kCodesign || !spec.validate().ok()) return;
  const Hash128 key = suite_key(chip_key(spec), spec.seed);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++expected_[key];
}

std::shared_ptr<const testgen::TestSuite> SuiteMemo::take(const Hash128& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto expected = expected_.find(key);
  if (expected == expected_.end()) return nullptr;
  const auto stored = suites_.find(key);
  std::shared_ptr<const testgen::TestSuite> suite;
  if (stored != suites_.end()) {
    suite = stored->second;
    ++hits_;
  }
  if (--expected->second == 0) {
    expected_.erase(expected);
    if (stored != suites_.end()) suites_.erase(stored);
  }
  return suite;
}

void SuiteMemo::put(const Hash128& key,
                    std::shared_ptr<const testgen::TestSuite> suite) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (expected_.count(key) != 0) suites_.emplace(key, std::move(suite));
}

std::int64_t SuiteMemo::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SuiteMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return suites_.size();
}

std::unique_ptr<core::FitnessCache> open_fitness_cache(const std::string& dir,
                                                       int cache_mb) {
  core::FitnessCacheOptions options;
  options.dir = dir;
  options.max_bytes = static_cast<std::size_t>(cache_mb) << 20;
  return std::make_unique<core::FitnessCache>(std::move(options));
}

JobResult run_job(const JobSpec& spec, const RunControl* control,
                  core::FitnessCache* cache, JobContext* context,
                  SuiteMemo* suites) {
  JobContext local;  // a job without a warm context parses its own inputs
  JobContext& inputs = context != nullptr ? *context : local;
  JobResult result;
  result.id = spec.id;
  result.kind = spec.kind;
  result.status = spec.validate();
  if (!result.status.ok()) return result;
  // A stop observed before the job starts (cascading batch cancel, expired
  // deadline) skips the work entirely.
  if (control != nullptr) {
    const StopReason stop = control->check();
    if (stop != StopReason::kNone) {
      result.status =
          Status::Fail(outcome_of(stop), "queue", "stopped before the job ran");
      return result;
    }
  }
  // The inputs, resolved once before dispatch: chip or assay text that
  // does not parse is the caller's error, not the job's.
  const Hash128 chip_hash = chip_key(spec);
  std::optional<arch::Biochip> chip;
  std::optional<sched::Assay> assay;
  try {
    chip.emplace(inputs.chip_for(spec, chip_hash));
    if (spec.kind == JobKind::kCodesign) assay.emplace(inputs.assay_for(spec));
  } catch (const std::exception& e) {
    result.status =
        Status::Fail(Outcome::kInvalidOptions, "job_spec", e.what());
    return result;
  }
  try {
    if (spec.kind == JobKind::kCodesign) {
      run_codesign_job(spec, *chip, *assay, control, cache, result);
    } else if (const auto suite = generate_suite(spec, chip_hash, *chip,
                                                 control, suites, result)) {
      if (spec.kind == JobKind::kTestgen) {
        run_testgen_job(*suite, result);
      } else if (spec.kind == JobKind::kCoverage) {
        run_coverage_job(spec, *chip, *suite, control, result);
      } else {
        run_diagnosis_job(spec, *chip, *suite, result);
      }
    }
  } catch (const std::exception& e) {
    result.status =
        Status::Fail(Outcome::kInternalError, to_string(spec.kind), e.what());
  } catch (...) {
    result.status = Status::Fail(Outcome::kInternalError, to_string(spec.kind),
                                 "unknown exception");
  }
  return result;
}

}  // namespace mfd::svc
