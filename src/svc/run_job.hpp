// Executes one JobSpec against the library.
//
// run_job()'s deterministic result fields are a pure function of the spec
// alone (the paper pipelines are seeded, never wall-clock driven): it
// resolves the chip and assay once, dispatches on the job kind, and returns
// a JobResult. A shared FitnessCache or JobContext only changes *how fast*
// that function is computed — hits serve bit-identical values with
// logically identical counters — never what it returns. Exceptions never
// escape: an invalid spec, or chip/assay text that does not parse, comes
// back as kInvalidOptions (stage "job_spec"), and a failure inside the job
// as kInternalError, so one malformed job cannot take down an executor
// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/biochip.hpp"
#include "common/hash.hpp"
#include "common/run_control.hpp"
#include "core/fitness_cache.hpp"
#include "sched/assay.hpp"
#include "svc/job.hpp"

namespace mfd::testgen {
struct TestSuite;
}  // namespace mfd::testgen

namespace mfd::svc {

/// The parsed chips and assays and the multiport suites that the jobs of
/// one execution core share: a campaign member's three jobs need one chip
/// and one suite. Each is keyed by a content hash of its kind and its
/// source (for a suite, the chip and the seed), so no key keeps text.
///
/// An artifact is stored only while a job claims it, from admission until
/// the job is answered. A job takes a stored artifact or builds its own,
/// never waiting for another job's build; the first complete build stays,
/// and a stopped or infeasible generation is not stored. A build is
/// deterministic, so results are byte-identical with and without a
/// context. Thread-safe.
class JobContext {
 public:
  /// Claims what `spec`'s job resolves: its chip, and its assay (codesign)
  /// or its multiport suite (testgen, coverage, diagnosis).
  void claim(const JobSpec& spec);
  /// Drops the claims claim(spec) took; an artifact no job claims any
  /// more is erased.
  void release(const JobSpec& spec);

  /// The spec's chip (named benchmark or inline chip_text). Throws
  /// mfd::Error for an unknown name or malformed text.
  [[nodiscard]] std::shared_ptr<const arch::Biochip> chip(const JobSpec& spec);
  /// The spec's assay (named benchmark or inline assay_text). Throws
  /// mfd::Error when unknown or malformed.
  [[nodiscard]] std::shared_ptr<const sched::Assay> assay(const JobSpec& spec);
  /// The multiport test suite of `chip` (the spec's) at the spec's seed;
  /// null when generation stopped under `control` or found the chip
  /// untestable.
  [[nodiscard]] std::shared_ptr<const testgen::TestSuite> suite(
      const JobSpec& spec, const arch::Biochip& chip,
      const RunControl* control);

  /// Jobs served a suite that another job generated.
  [[nodiscard]] std::int64_t suites_reused() const;
  /// Artifacts claimed now, built or not.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    int claims = 0;
    /// The artifact, once a claiming job built it; its type follows from
    /// the key's kind.
    std::shared_ptr<const void> value;
  };

  /// The artifact stored under `key`, else build()'s, which is stored
  /// while a job claims `key` (a null build stores nothing).
  template <typename T, typename Build>
  std::shared_ptr<const T> resolve(const Hash128& key, Build build);

  mutable std::mutex mutex_;
  std::unordered_map<Hash128, Entry, Hash128Hasher> entries_;
  std::int64_t suites_reused_ = 0;
};

/// A fitness cache over the persistent tier in `dir` ("" = in-memory only)
/// with an in-memory budget of `cache_mb` MiB (0 = unbounded).
[[nodiscard]] std::unique_ptr<core::FitnessCache> open_fitness_cache(
    const std::string& dir, int cache_mb);

/// Runs the job to completion (or to the control's deadline/cancel), never
/// throws. `control`, `cache` and `context` are borrowed and may be null; a
/// non-null cache is injected into codesign jobs' evaluators (other kinds
/// have no fitness evaluations to share), and a non-null context serves
/// the artifacts its claiming jobs built, without changing any result
/// byte. An artifact that no job claims is not stored.
[[nodiscard]] JobResult run_job(const JobSpec& spec,
                                const RunControl* control = nullptr,
                                core::FitnessCache* cache = nullptr,
                                JobContext* context = nullptr);

}  // namespace mfd::svc
