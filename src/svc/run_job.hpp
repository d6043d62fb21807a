// Executes one JobSpec against the library.
//
// run_job()'s deterministic result fields are a pure function of the spec
// alone (the paper pipelines are seeded, never wall-clock driven): it
// resolves the chip and assay once, dispatches on the job kind, and returns
// a JobResult. A shared FitnessCache only changes *how fast* that function
// is computed — cache hits serve bit-identical values with logically
// identical counters — never what it returns. Exceptions never escape: an
// invalid spec, or chip/assay text that does not parse, comes back as
// kInvalidOptions (stage "job_spec"), and a failure inside the job as
// kInternalError, so one malformed job cannot take down an executor thread.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/biochip.hpp"
#include "common/run_control.hpp"
#include "core/fitness_cache.hpp"
#include "sched/assay.hpp"
#include "svc/job.hpp"

namespace mfd::svc {

/// Warm per-worker state shared across jobs: parsed chips and assays, keyed
/// by how the spec named them. A long-lived worker (or daemon executor)
/// keeps one JobContext for its lifetime so a stream of jobs over the same
/// chip family stops re-parsing chip_text / rebuilding benchmark chips on
/// every job. Thread-safe; resolving through a context returns the same
/// value a fresh parse would (construction is deterministic), so results
/// are byte-identical with and without one.
class JobContext {
 public:
  /// The spec's chip (named benchmark or inline chip_text), parsed at most
  /// once per distinct source. Throws mfd::Error for an unknown name or
  /// malformed text (the error is not cached; a retry re-parses).
  [[nodiscard]] arch::Biochip chip_for(const JobSpec& spec);

  /// The spec's assay (named benchmark or inline assay_text), built at most
  /// once per distinct source. Throws mfd::Error when unknown or malformed.
  [[nodiscard]] sched::Assay assay_for(const JobSpec& spec);

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, arch::Biochip> chips_;
  std::unordered_map<std::string, sched::Assay> assays_;
};

/// A fitness cache over the persistent tier in `dir` ("" = in-memory only)
/// with an in-memory budget of `cache_mb` MiB (0 = unbounded).
[[nodiscard]] std::unique_ptr<core::FitnessCache> open_fitness_cache(
    const std::string& dir, int cache_mb);

/// Runs the job to completion (or to the control's deadline/cancel), never
/// throws. `control`, `cache` and `context` are borrowed and may be null; a
/// non-null cache is injected into codesign jobs' evaluators (other kinds
/// have no fitness evaluations to share); a non-null context serves parsed
/// chips/assays warm across jobs without changing any result byte.
[[nodiscard]] JobResult run_job(const JobSpec& spec,
                                const RunControl* control = nullptr,
                                core::FitnessCache* cache = nullptr,
                                JobContext* context = nullptr);

}  // namespace mfd::svc
