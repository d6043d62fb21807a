// Shared pieces of the perfbench workloads: arguments, the run report,
// statistics, and the span recorder behind the traced mode.
//
// Spans are recorded only from this benchmark's own code, around calls into
// the library's public functions; the library's existing Tracer spans and
// counters are folded in through RecorderSink. Nothing here changes what the
// library computes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/eval_stats.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "sim/fault.hpp"

namespace mfd::svc {
struct JobResult;
}  // namespace mfd::svc

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

/// Every seed argument defaults to kBaseSeed + --seed, so --seed 0 is the
/// configuration the committed references were recorded with.
inline constexpr std::uint64_t kBaseSeed = 2024;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// PSO seed of the table1 codesign runs.
  std::uint64_t codesign_seed = kBaseSeed;
  /// FpvaSpec/FamilySpec seed of the generated chips.
  std::uint64_t family_seed = kBaseSeed;
  /// Seed of the daemon's arrival times and query mix.
  std::uint64_t arrival_seed = kBaseSeed;
  /// Directory of the committed output references.
  std::string reference_dir;
  /// Writable directory for the traced mode's span files.
  std::string state_dir;
  /// Rewrite the untraced run's reference for the default seeds instead of
  /// checking it.
  bool write_reference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Report {
  std::vector<Metric> metrics;
  /// Operations attempted and failed; a failed output check counts as a
  /// failed operation.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// One line per failed check.
  std::vector<std::string> errors;
  /// Workload-specific run-stamp fields (thread counts, generator lag, ...).
  mfd::Json stamp = mfd::Json::object();
  /// Human-readable lines printed before the result (traced breakdowns).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit);
  /// Records a failed check; counts it as a failed operation.
  void fail(std::string what);
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// setup_s of a run from set-up samples taken at points spread through it.
/// A shared host can run in fast and slow phases of about a second; one
/// sample, and the samples taken together at one point, see one phase or
/// the other, and a plain median flips between the two. The samples are
/// dealt round-robin into five groups; the value is the median of the group
/// means. Each group mean spans the whole run, like the other metrics do.
[[nodiscard]] double setup_seconds(const std::vector<double>& samples);

/// High-water resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// 64-bit FNV-1a, printed as 16 hex digits: the output digests kept in the
/// reference files.
[[nodiscard]] std::string fnv1a_hex(const std::string& bytes);

/// Reads a JSON file; returns false when it does not exist.
[[nodiscard]] bool read_json_file(const std::string& path, mfd::Json* out);
void write_json_file(const std::string& path, const mfd::Json& value);

/// One recorded span. Spans of one job, request or codesign call share a
/// trace id; `parent` indexes the enclosing span (-1 for a root).
struct SpanRecord {
  std::string name;
  std::string trace_id;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span and counter store for the traced mode. Each thread keeps
/// its own stack of open spans, so nesting follows the calling thread.
class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// RAII span; inert when built from a null recorder.
  class Scope {
   public:
    Scope() = default;
    Scope(Recorder* recorder, std::string name, std::string trace_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* recorder_ = nullptr;
  };

  /// Opens a span on the calling thread. An empty trace id inherits the
  /// enclosing span's; a root span without one is its own trace.
  void open(std::string name, std::string trace_id = "");
  void close();
  /// Records a finished span with explicit times; returns its index (the
  /// `parent` of spans recorded under it).
  int add(std::string name, std::string trace_id, int parent,
          Clock::time_point start, Clock::time_point end);
  void count(const std::string& name, std::int64_t value);

  [[nodiscard]] std::int64_t counter(const std::string& name) const;
  /// Summed duration of every span with exactly this name.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Self time (duration minus the time covered by child spans) summed per
  /// layer; a span's layer is the part of its name before the first '.',
  /// or the layer owning a library span (see layer_of_library_span).
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// Writes every span and counter as JSON lines.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::int64_t> counters_;
};

/// Null-safe span helper: `auto s = span(rec, "layer.call", id);`.
[[nodiscard]] inline Recorder::Scope span(Recorder* recorder, std::string name,
                                          std::string trace_id = "") {
  return Recorder::Scope(recorder, std::move(name), std::move(trace_id));
}

/// Feeds the library's Tracer events (stage spans, ilp.* counters) into a
/// Recorder, nesting them under the benchmark span open on the same thread.
class RecorderSink final : public mfd::TraceSink {
 public:
  explicit RecorderSink(Recorder* recorder) : recorder_(recorder) {}
  void write(const mfd::TraceEvent& event) override;

 private:
  Recorder* recorder_;
};

/// A Recorder fed by a library Tracer: hand `&tracer` to
/// RunControl::set_tracer or JobdOptions::tracer.
struct LibraryTrace {
  Recorder recorder;
  RecorderSink sink{&recorder};
  mfd::Tracer tracer{&sink};
};

/// Per-layer figures measured by timed calls from the benchmark into the
/// testgen, sim, arch and svc-codec public functions on a workload's own
/// chips and job lines.
struct LayerProbe {
  double multiport_s = 0.0;
  double coverage_s = 0.0;
  double diagnosis_s = 0.0;
  double chip_parse_s = 0.0;
  double codec_s = 0.0;
  std::int64_t vectors = 0;
  std::int64_t faults = 0;
};

/// Times generate_test_suite_multiport, evaluate_coverage,
/// build_diagnosis_table and chip_from_string on every chip text.
void probe_chips(const std::vector<std::string>& chip_texts,
                 mfd::sim::FaultUniverse universe, Recorder* recorder,
                 LayerProbe* probe);

/// Times the job codec on a workload's lines: Json::parse +
/// JobSpec::from_json per spec line, JobResult::to_json().dump() per result.
void probe_codec(const std::vector<std::string>& spec_lines,
                 const std::vector<mfd::svc::JobResult>& results,
                 Recorder* recorder, LayerProbe* probe);

/// Per-layer counts and ratios read from the library's counters and result
/// types; a workload that bypasses a layer leaves its fields at 0.
struct LayerCounts {
  std::int64_t ilp_nodes = 0;
  std::int64_t ilp_pivots = 0;
  std::int64_t ilp_lp_solves = 0;
  double ilp_warm_start_hit_ratio = 0.0;
  std::int64_t sched_runs = 0;
  double sched_feasible_ratio = 0.0;
  std::int64_t pso_outer_evaluations = 0;
  std::int64_t pso_inner_evaluations = 0;
  std::int64_t core_evaluations = 0;
  double core_cache_hit_ratio = 0.0;
  std::int64_t svc_jobs_shed = 0;
  double net_bytes_per_request = 0.0;
};
/// Adds the per-layer metrics every workload reports (see README.md).
void add_layer_metrics(const LayerCounts& counts, const LayerProbe& probe,
                       double trace_overhead_pct, Report* report);

/// Fills the ilp.* counts from the library counters a Recorder collected.
void read_ilp_counters(const Recorder& recorder, LayerCounts* counts);
/// Fills the sched, pso and core counts from evaluation statistics.
void read_eval_stats(const mfd::EvalStats& stats, LayerCounts* counts);

/// The counts that must repeat exactly when the same work runs twice:
/// ilp.nodes, ilp.pivots, core.evaluations, sched.runs, testgen.vectors and
/// sim.faults.
[[nodiscard]] std::map<std::string, std::int64_t> deterministic_counts(
    const LayerCounts& counts, const LayerProbe& probe);

/// Deterministic-counter check: the traced run does its work twice, and
/// both runs' counts must be equal. A count that drifts marks a path bounded
/// by the wall clock (see README.md); the run fails. Prints the counts.
void check_repeat(const std::map<std::string, std::int64_t>& first,
                  const std::map<std::string, std::int64_t>& second,
                  Report* report);

/// Appends "layer self time" note lines from a recorder.
void note_self_times(const Recorder& recorder, Report* report);

}  // namespace perfbench
