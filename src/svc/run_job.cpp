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
  if (spec.chip == "IVD_chip") return arch::make_ivd_chip();
  if (spec.chip == "RA30_chip") return arch::make_ra30_chip();
  if (spec.chip == "mRNA_chip") return arch::make_mrna_chip();
  if (spec.chip == "figure4_chip") return arch::make_figure4_chip();
  throw Error("run_job(): unknown chip '" + spec.chip + "'");
}

sched::Assay build_assay(const JobSpec& spec) {
  if (!spec.assay_text.empty()) {
    return sched::assay_from_string(spec.assay_text);
  }
  if (spec.assay == "IVD") return sched::make_ivd_assay();
  if (spec.assay == "PID") return sched::make_pid_assay();
  if (spec.assay == "CPA") return sched::make_cpa_assay();
  throw Error("run_job(): unknown assay '" + spec.assay + "'");
}

/// The cached value for `key`, built outside the lock on a miss (`build`
/// can be slow: chip_text can be large). Last writer wins; both writers
/// built the same deterministic value.
template <typename T, typename Build>
T cached(std::mutex& mutex, std::unordered_map<std::string, T>& values,
         const std::string& key, Build build) {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = values.find(key);
    if (it != values.end()) return it->second;
  }
  T value = build();
  const std::lock_guard<std::mutex> lock(mutex);
  return values.emplace(key, std::move(value)).first->second;
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
/// suite of the chip as-is. Returns false (with result.status set) when
/// generation stopped or found the chip untestable.
bool generate_suite(const JobSpec& spec, const RunControl* control,
                    const arch::Biochip& chip, JobResult& result,
                    std::optional<testgen::TestSuite>& suite) {
  testgen::VectorGenOptions options;
  options.seed = spec.seed;
  options.control = control;
  suite = testgen::generate_test_suite_multiport(chip, options);
  if (suite.has_value()) return true;
  const StopReason stop =
      control != nullptr ? control->stop_observed() : StopReason::kNone;
  if (stop != StopReason::kNone) {
    result.status = Status::Fail(outcome_of(stop), "testgen",
                                 "stopped during test-suite generation");
  } else {
    result.status = Status::Fail(Outcome::kInfeasible, "testgen",
                                 "no complete multiport test suite exists");
  }
  return false;
}

void run_testgen_job(const JobSpec& spec, const arch::Biochip& chip,
                     const RunControl* control, JobResult& result) {
  std::optional<testgen::TestSuite> suite;
  if (!generate_suite(spec, control, chip, result, suite)) return;
  result.vectors = suite->size();
  result.path_vectors = suite->path_vector_count();
  result.cut_vectors = suite->cut_vector_count();
  result.total_faults = suite->coverage.total_faults;
  result.detected_faults = suite->coverage.detected_faults;
}

void run_coverage_job(const JobSpec& spec, const arch::Biochip& chip,
                      const RunControl* control, JobResult& result) {
  std::optional<testgen::TestSuite> suite;
  if (!generate_suite(spec, control, chip, result, suite)) return;
  const sim::CoverageReport report = sim::evaluate_coverage(
      chip, suite->vectors, resolve_universe(spec), control);
  const StopReason stop =
      control != nullptr ? control->stop_observed() : StopReason::kNone;
  if (stop != StopReason::kNone) {
    result.status = Status::Fail(outcome_of(stop), "coverage",
                                 "stopped during coverage evaluation");
    return;
  }
  result.vectors = suite->size();
  result.total_faults = report.total_faults;
  result.detected_faults = report.detected_faults;
}

void run_diagnosis_job(const JobSpec& spec, const arch::Biochip& chip,
                       const RunControl* control, JobResult& result) {
  std::optional<testgen::TestSuite> suite;
  if (!generate_suite(spec, control, chip, result, suite)) return;
  const sim::DiagnosisTable table = sim::build_diagnosis_table(
      chip, suite->vectors, resolve_universe(spec));
  result.vectors = suite->size();
  result.total_faults = static_cast<int>(table.signature_of_fault.size());
  result.distinct_signatures = table.distinct_signatures();
  result.ambiguous_faults = table.ambiguous_faults();
  result.undetected_faults = table.undetected_faults();
  result.resolution = table.resolution();
}

}  // namespace

arch::Biochip JobContext::chip_for(const JobSpec& spec) {
  // Key by the source, not the result: a named chip and an inline text of
  // the same chip are distinct cache entries (their parse paths differ).
  const std::string key = !spec.chip_text.empty() ? "text:" + spec.chip_text
                                                  : "name:" + spec.chip;
  return cached(mutex_, chips_, key, [&spec] { return build_chip(spec); });
}

sched::Assay JobContext::assay_for(const JobSpec& spec) {
  // Same keying rule as chip_for(): named assays and inline text are
  // distinct cache entries.
  const std::string key = !spec.assay_text.empty()
                              ? "text:" + spec.assay_text
                              : "name:" + spec.assay;
  return cached(mutex_, assays_, key, [&spec] { return build_assay(spec); });
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
  std::optional<arch::Biochip> chip;
  std::optional<sched::Assay> assay;
  try {
    chip.emplace(inputs.chip_for(spec));
    if (spec.kind == JobKind::kCodesign) assay.emplace(inputs.assay_for(spec));
  } catch (const std::exception& e) {
    result.status =
        Status::Fail(Outcome::kInvalidOptions, "job_spec", e.what());
    return result;
  }
  try {
    switch (spec.kind) {
      case JobKind::kCodesign:
        run_codesign_job(spec, *chip, *assay, control, cache, result);
        break;
      case JobKind::kTestgen:
        run_testgen_job(spec, *chip, control, result);
        break;
      case JobKind::kCoverage:
        run_coverage_job(spec, *chip, control, result);
        break;
      case JobKind::kDiagnosis:
        run_diagnosis_job(spec, *chip, control, result);
        break;
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
