// Executes one JobSpec against the library.
//
// run_job()'s deterministic result fields are a pure function of the spec
// alone (the paper pipelines are seeded, never wall-clock driven): it
// resolves the chip and assay once, dispatches on the job kind, and returns
// a JobResult. A shared FitnessCache or SuiteMemo only changes *how fast*
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

/// The key of a spec's chip source: a content hash of how the spec names
/// it (a benchmark name or inline chip_text) and of those bytes.
[[nodiscard]] Hash128 chip_key(const JobSpec& spec);

/// The key of the multiport suite a testgen, coverage or diagnosis job
/// generates: its chip key and seed, the only spec fields generation reads.
[[nodiscard]] Hash128 suite_key(const Hash128& chip, std::uint64_t seed);

/// Warm per-worker state shared across jobs: parsed chips and assays, keyed
/// by a content hash of how the spec named them, so a key keeps none of the
/// spec's text. A long-lived worker (or daemon executor) keeps one
/// JobContext for its lifetime so a stream of jobs over the same chip
/// family stops re-parsing chip_text / rebuilding benchmark chips on every
/// job. Thread-safe; resolving through a context returns the same value a
/// fresh parse would (construction is deterministic), so results are
/// byte-identical with and without one.
class JobContext {
 public:
  /// The spec's chip (named benchmark or inline chip_text), parsed at most
  /// once per distinct source; `key` is chip_key(spec). Throws mfd::Error
  /// for an unknown name or malformed text (the error is not cached; a
  /// retry re-parses).
  [[nodiscard]] arch::Biochip chip_for(const JobSpec& spec, const Hash128& key);

  /// The spec's assay (named benchmark or inline assay_text), built at most
  /// once per distinct source. Throws mfd::Error when unknown or malformed.
  [[nodiscard]] sched::Assay assay_for(const JobSpec& spec);

 private:
  std::mutex mutex_;
  std::unordered_map<Hash128, arch::Biochip, Hash128Hasher> chips_;
  std::unordered_map<Hash128, sched::Assay, Hash128Hasher> assays_;
};

/// The multiport test suites the testgen, coverage and diagnosis jobs of
/// one batch share: a campaign member's three jobs carry one chip and one
/// seed, so they need one suite. The batch counts, before it runs, the
/// jobs that will take each suite_key(). A job takes the stored suite or
/// generates its own, never waiting on another executor's generation of
/// the same key; only complete generations are stored, and only while a
/// counted job has yet to take them. The last counted job's take erases
/// the entry, so the memo holds about one suite per executor. Thread-safe.
class SuiteMemo {
 public:
  /// Counts `spec` as a job that will take its suite: a valid testgen,
  /// coverage or diagnosis spec (codesign generates none here).
  void expect(const JobSpec& spec);

  /// Serves one counted job of `key`: the stored suite, or null when none
  /// is stored (the job generates its own). Null for a key never counted.
  [[nodiscard]] std::shared_ptr<const testgen::TestSuite> take(
      const Hash128& key);

  /// Stores a complete suite for `key` while a counted job of the key has
  /// yet to take it; the first stored suite stays.
  void put(const Hash128& key, std::shared_ptr<const testgen::TestSuite> suite);

  /// Jobs served a stored suite instead of generating one.
  [[nodiscard]] std::int64_t hits() const;
  /// Suites stored now.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  /// Counted jobs of each key that have not taken it yet (no entry = 0).
  std::unordered_map<Hash128, int, Hash128Hasher> expected_;
  std::unordered_map<Hash128, std::shared_ptr<const testgen::TestSuite>,
                     Hash128Hasher>
      suites_;
  std::int64_t hits_ = 0;
};

/// A fitness cache over the persistent tier in `dir` ("" = in-memory only)
/// with an in-memory budget of `cache_mb` MiB (0 = unbounded).
[[nodiscard]] std::unique_ptr<core::FitnessCache> open_fitness_cache(
    const std::string& dir, int cache_mb);

/// Runs the job to completion (or to the control's deadline/cancel), never
/// throws. `control`, `cache`, `context` and `suites` are borrowed and may
/// be null; a non-null cache is injected into codesign jobs' evaluators
/// (other kinds have no fitness evaluations to share); a non-null context
/// serves parsed chips/assays warm across jobs, and a non-null memo the
/// batch's multiport suites, without changing any result byte.
[[nodiscard]] JobResult run_job(const JobSpec& spec,
                                const RunControl* control = nullptr,
                                core::FitnessCache* cache = nullptr,
                                JobContext* context = nullptr,
                                SuiteMemo* suites = nullptr);

}  // namespace mfd::svc
