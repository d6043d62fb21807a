#include "svc/run_job.hpp"

#include <array>
#include <optional>
#include <type_traits>
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

/// The kinds of artifact a JobContext holds, mixed into every key.
enum class Artifact : std::uint64_t { kChip = 1, kAssay = 2, kSuite = 3 };

/// The key of an artifact built from a named or an inline source, which
/// are distinct keys for the same bytes (their parse paths differ). A
/// suite's key adds the seed, the only other field generation reads.
Hash128 artifact_key(Artifact artifact, const std::string& name,
                     const std::string& text, std::uint64_t seed = 0) {
  ContentHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(artifact));
  hasher.mix(seed);
  hasher.mix_bool(!text.empty());
  hasher.mix_bytes(!text.empty() ? text : name);
  return hasher.digest();
}

Hash128 chip_key(const JobSpec& spec) {
  return artifact_key(Artifact::kChip, spec.chip, spec.chip_text);
}

Hash128 assay_key(const JobSpec& spec) {
  return artifact_key(Artifact::kAssay, spec.assay, spec.assay_text);
}

Hash128 suite_key(const JobSpec& spec) {
  return artifact_key(Artifact::kSuite, spec.chip, spec.chip_text, spec.seed);
}

/// The keys a job of `spec` resolves: its chip's, then its assay's
/// (codesign) or its suite's.
std::array<Hash128, 2> claimed_keys(const JobSpec& spec) {
  return {chip_key(spec), spec.kind == JobKind::kCodesign ? assay_key(spec)
                                                          : suite_key(spec)};
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
/// suite of the chip as-is. Returns null (with result.status set) when
/// generation stopped or found the chip untestable.
std::shared_ptr<const testgen::TestSuite> generate_suite(
    const JobSpec& spec, const arch::Biochip& chip, const RunControl* control,
    JobContext& context, JobResult& result) {
  if (auto suite = context.suite(spec, chip, control)) return suite;
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

void JobContext::claim(const JobSpec& spec) {
  const std::array<Hash128, 2> keys = claimed_keys(spec);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Hash128& key : keys) ++entries_[key].claims;
}

void JobContext::release(const JobSpec& spec) {
  const std::array<Hash128, 2> keys = claimed_keys(spec);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Hash128& key : keys) {
    const auto it = entries_.find(key);
    if (it != entries_.end() && --it->second.claims == 0) entries_.erase(it);
  }
}

template <typename T, typename Build>
std::shared_ptr<const T> JobContext::resolve(const Hash128& key, Build build) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.value != nullptr) {
      if constexpr (std::is_same_v<T, testgen::TestSuite>) ++suites_reused_;
      return std::static_pointer_cast<const T>(it->second.value);
    }
  }
  std::shared_ptr<const T> value = build();  // unlocked: it can be slow
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (value != nullptr && it != entries_.end() && it->second.value == nullptr) {
    it->second.value = value;
  }
  return value;
}

std::shared_ptr<const arch::Biochip> JobContext::chip(const JobSpec& spec) {
  return resolve<arch::Biochip>(chip_key(spec), [&spec] {
    return std::make_shared<const arch::Biochip>(build_chip(spec));
  });
}

std::shared_ptr<const sched::Assay> JobContext::assay(const JobSpec& spec) {
  return resolve<sched::Assay>(assay_key(spec), [&spec] {
    return std::make_shared<const sched::Assay>(build_assay(spec));
  });
}

std::shared_ptr<const testgen::TestSuite> JobContext::suite(
    const JobSpec& spec, const arch::Biochip& chip,
    const RunControl* control) {
  return resolve<testgen::TestSuite>(
      suite_key(spec), [&]() -> std::shared_ptr<const testgen::TestSuite> {
        testgen::VectorGenOptions options;
        options.seed = spec.seed;
        options.control = control;
        auto generated = testgen::generate_test_suite_multiport(chip, options);
        if (!generated.has_value()) return nullptr;
        return std::make_shared<const testgen::TestSuite>(
            std::move(*generated));
      });
}

std::int64_t JobContext::suites_reused() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return suites_reused_;
}

std::size_t JobContext::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::unique_ptr<core::FitnessCache> open_fitness_cache(const std::string& dir,
                                                       int cache_mb) {
  core::FitnessCacheOptions options;
  options.dir = dir;
  options.max_bytes = static_cast<std::size_t>(cache_mb) << 20;
  return std::make_unique<core::FitnessCache>(std::move(options));
}

JobResult run_job(const JobSpec& spec, const RunControl* control,
                  core::FitnessCache* cache, JobContext* context) {
  JobContext local;  // claimed by nobody: stores nothing
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
  std::shared_ptr<const arch::Biochip> chip;
  std::shared_ptr<const sched::Assay> assay;
  try {
    chip = inputs.chip(spec);
    if (spec.kind == JobKind::kCodesign) assay = inputs.assay(spec);
  } catch (const std::exception& e) {
    result.status =
        Status::Fail(Outcome::kInvalidOptions, "job_spec", e.what());
    return result;
  }
  try {
    if (spec.kind == JobKind::kCodesign) {
      run_codesign_job(spec, *chip, *assay, control, cache, result);
    } else if (const auto suite =
                   generate_suite(spec, *chip, control, inputs, result)) {
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
