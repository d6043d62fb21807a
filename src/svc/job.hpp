// Job model for the concurrent service layer.
//
// A JobSpec describes one self-contained request against the library: run
// the codesign flow, generate a test suite, evaluate fault coverage, or
// build a diagnosis table — the workloads a production test service fields
// in bulk (whole chip families tested at once, diagnosis feeding
// reconfiguration). Specs travel as JSON (one object per JSONL line in the
// `mfdft_jobd` driver), carry per-job deadline/thread/seed settings, and
// validate the same way CodesignOptions does: every bad field is reported
// in one Status.
//
// A JobResult carries the job's Status plus serialized artifacts. Its JSON
// form contains only deterministic fields (counters, makespans, chip text —
// never wall-clock times), so a result file is byte-identical for a fixed
// seed set regardless of how many executor threads produced it.
//
// ServiceMetrics is the service's one counter model: a batch, the daemon,
// a daemon client and a campaign all report it, and each counts every
// delivered result once through ServiceMetrics::tally().
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/eval_stats.hpp"
#include "common/json.hpp"
#include "common/status.hpp"

namespace mfd::svc {

/// Upper bound on every thread, worker-process and executor count the
/// service accepts: each one starts an OS thread or process, so an
/// unbounded value from a spec line or a flag would exhaust the host.
inline constexpr int kMaxThreads = 256;

/// Largest seed a spec accepts. JSON integers are int64, so a larger seed
/// could not travel through to_json() and back.
inline constexpr std::uint64_t kMaxSeed =
    std::numeric_limits<std::int64_t>::max();

enum class JobKind {
  /// Full DFT codesign flow (core::run_codesign) on a chip x assay pair.
  kCodesign = 0,
  /// Multiport test-suite generation on the chip as-is.
  kTestgen,
  /// Fault-coverage evaluation of a generated suite over a fault universe.
  kCoverage,
  /// Diagnosis table (signatures, resolution) of a generated suite.
  kDiagnosis,
};

[[nodiscard]] const char* to_string(JobKind kind);

/// Inverse of to_string(JobKind); false for unknown names.
[[nodiscard]] bool job_kind_from_name(const std::string& name, JobKind* kind);

/// Scheduling class of a job. Lower values are served first by the
/// service-layer priority queue; aging promotes starved bulk work (see
/// svc/priority_queue.hpp).
enum class JobClass {
  /// Latency-sensitive: testgen / coverage / diagnosis queries.
  kInteractive = 0,
  /// Throughput work: codesign sweeps that run for minutes.
  kBulk = 1,
};

inline constexpr int kJobClassCount = 2;

[[nodiscard]] const char* to_string(JobClass job_class);

/// Inverse of to_string(JobClass); false for unknown names.
[[nodiscard]] bool job_class_from_name(const std::string& name,
                                       JobClass* job_class);

struct JobSpec {
  JobKind kind = JobKind::kTestgen;
  /// Echoed into the result; empty ids are allowed (results are positional).
  std::string id;

  /// Chip source: exactly one of `chip` (a named benchmark chip: IVD_chip,
  /// RA30_chip, mRNA_chip, figure4_chip) or `chip_text` (inline
  /// arch/serialize text format) must be set.
  std::string chip;
  std::string chip_text;

  /// Assay source for codesign jobs (ignored otherwise): exactly one of
  /// `assay` (a named benchmark assay: IVD, PID, CPA) or `assay_text`
  /// (inline sched/serialize text format — how generated campaign assays
  /// travel) must be set.
  std::string assay;
  std::string assay_text;

  /// Fault universe for coverage/diagnosis jobs: "stuck_at" or
  /// "stuck_at_leakage".
  std::string universe = "stuck_at";

  /// Per-job deadline in seconds (0 = none, at most kMaxDeadlineS). The
  /// executor arms a dedicated RunControl with it when the job starts.
  double deadline_s = 0.0;
  /// Evaluation threads *within* the job (codesign fitness pipeline);
  /// results are identical for every value. 0 = hardware concurrency; at
  /// most kMaxThreads.
  int threads = 1;
  /// At most kMaxSeed.
  std::uint64_t seed = 2024;

  /// Codesign knobs (defaults match CodesignOptions).
  int outer_iterations = 100;
  int outer_particles = 5;
  int config_pool_size = 4;

  /// Scheduling class: "interactive", "bulk", or "" to derive it from the
  /// kind (codesign is bulk, everything else interactive). Only affects
  /// service order, never result bytes.
  std::string priority;

  /// Checks every field and reports all violations in one Status (stage
  /// "job_spec", outcome kInvalidOptions); Ok() when the spec is runnable.
  [[nodiscard]] Status validate() const;

  /// JSON object with every field (defaults included), deterministic order.
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json(); absent fields keep their defaults. An unknown
  /// field, a type mismatch or an integer out of its field's range throws
  /// mfd::Error naming the field.
  static JobSpec from_json(const Json& json);

  [[nodiscard]] bool operator==(const JobSpec&) const = default;
};

/// Effective scheduling class of a spec: the explicit `priority` override,
/// or the kind-derived default (codesign = bulk, the rest interactive).
[[nodiscard]] JobClass job_class_of(const JobSpec& spec);

/// Outcome of one executed job. Wall-clock fields stay out of to_json() so
/// result files are deterministic; they feed the service metrics instead.
struct JobResult {
  /// Position of the job in the submitted batch (results are returned in
  /// input order regardless of completion order).
  int index = 0;
  std::string id;
  JobKind kind = JobKind::kTestgen;
  Status status;

  // --- deterministic artifacts (serialized) -------------------------------
  /// Augmented chip (codesign) in arch/serialize text form; empty when the
  /// job produced no chip.
  std::string chip_text;
  /// Schedule makespan of the optimized chip (codesign), seconds.
  double makespan = 0.0;
  /// Codesign execution times (original / unoptimized DFT / optimized DFT).
  double exec_original = 0.0;
  double exec_dft_unoptimized = 0.0;
  double exec_dft_optimized = 0.0;
  int dft_valves = 0;
  int shared_valves = 0;
  /// Test-suite shape (testgen/coverage/diagnosis).
  int vectors = 0;
  int path_vectors = 0;
  int cut_vectors = 0;
  /// Coverage (coverage/testgen): faults in the universe and detected count.
  int total_faults = 0;
  int detected_faults = 0;
  /// Diagnosis summary.
  int distinct_signatures = 0;
  int ambiguous_faults = 0;
  int undetected_faults = 0;
  double resolution = 0.0;
  /// Deterministic evaluation counters (wall-time members are zeroed in the
  /// serialized form).
  EvalStats stats;

  // --- service-side measurements (not serialized) -------------------------
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;

  /// Deterministic JSON object (stable key order, no wall-clock fields).
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json() — how the supervisor reconstructs a result from a
  /// worker's output line. Absent fields keep their defaults and unknown
  /// ones are ignored; a missing or unknown kind/outcome, a type mismatch
  /// or an integer out of its field's range throws mfd::Error.
  static JobResult from_json(const Json& json);
};

/// Service counters, monotonic over their owner's lifetime: an
/// ExecutionCore (a batch, the daemon) or a daemon client.
struct ServiceMetrics {
  /// Delivered results (any outcome) and their buckets: ok / stopped
  /// (deadline, cancel) / failed (invalid, infeasible, internal,
  /// unavailable). The three sum to jobs_total.
  std::int64_t jobs_total = 0;
  std::int64_t jobs_ok = 0;
  std::int64_t jobs_stopped = 0;
  std::int64_t jobs_failed = 0;
  /// Malformed spec lines answered in place (stage "parse"), and results
  /// adopted from a journal instead of run.
  std::int64_t parse_errors = 0;
  std::int64_t jobs_resumed = 0;
  /// Admission: jobs that entered the core's queue, by class, and jobs the
  /// daemon refused as kUnavailable (stage "admission").
  std::int64_t jobs_admitted = 0;
  std::int64_t admitted_interactive = 0;
  std::int64_t admitted_bulk = 0;
  std::int64_t jobs_shed = 0;
  /// Out-of-process execution (all 0 when no worker was asked for): results
  /// computed in another process, jobs requeued after a worker loss, jobs
  /// quarantined as kUnavailable (stage "worker") after max_attempts
  /// losses, and workers lost to crashes, stalls, torn output or hang-ups
  /// or that failed to spawn.
  std::int64_t jobs_remote = 0;
  std::int64_t jobs_retried = 0;
  std::int64_t jobs_quarantined = 0;
  std::int64_t workers_lost = 0;
  /// Daemon sessions: client connections fully answered, and remote-worker
  /// connections accepted.
  std::int64_t clients_served = 0;
  std::int64_t workers_joined = 0;
  /// The core's shared fitness cache (core/fitness_cache.hpp) since the
  /// core was built: lookups served / missed, entries resident, entries
  /// loaded warm from the persistent tier. 0 without one (worker batches:
  /// each worker owns its cache). Physical savings only: `stats` is
  /// unaffected by the cache configuration.
  std::int64_t cache_shared_hits = 0;
  std::int64_t cache_shared_misses = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_disk_loaded = 0;
  /// In-process batch jobs served a multiport suite another job of the
  /// batch generated (svc/run_job.hpp SuiteMemo). Above one thread it
  /// depends on timing, like cache_shared_hits; 0 for the daemon and for
  /// worker batches.
  std::int64_t suites_reused = 0;
  /// Queue latency (admission -> start) over delivered results, and the
  /// owner's wall time, seconds.
  double queue_wait_seconds_total = 0.0;
  double queue_wait_seconds_max = 0.0;
  double wall_seconds = 0.0;
  /// Deterministic evaluation counters summed over delivered results.
  EvalStats stats;

  /// Counts one delivered result: jobs_total, its outcome bucket, a parse
  /// error (stage "parse", which only parse_error_result() sets), its queue
  /// wait and its EvalStats.
  void tally(const JobResult& result);

  /// One line for a tool's summary: the outcome buckets, the counters that
  /// are not 0, and the wall time.
  [[nodiscard]] std::string summary() const;
};

/// True for a line a JobSpec stream skips: only spaces, tabs and CRs. A
/// skipped line still counts in the "line N" of parse errors.
[[nodiscard]] bool blank(const std::string& line);

/// The answer a malformed spec `line` gets in its slot `index`:
/// kInvalidOptions, stage "parse", "line <line_number>: <what>". When the
/// line is a JSON object whose "kind" names a job kind, the answer carries
/// that kind and, when it is a string, the line's "id"; otherwise it keeps
/// JobResult's defaults (kind testgen, empty id).
[[nodiscard]] JobResult parse_error_result(int index, int line_number,
                                           const std::string& line,
                                           const std::string& what);

}  // namespace mfd::svc
