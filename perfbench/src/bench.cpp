#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "arch/serialize.hpp"
#include "sim/batch_fault.hpp"
#include "sim/diagnosis.hpp"
#include "sim/pressure.hpp"
#include "svc/job.hpp"
#include "testgen/vector_gen.hpp"

namespace perfbench {

using mfd::Json;

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string what) {
  ++failed;
  errors.push_back(std::move(what));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double setup_seconds(const std::vector<double>& samples) {
  constexpr std::size_t kGroups = 5;
  std::vector<double> sums(std::min(kGroups, samples.size()), 0.0);
  std::vector<int> counts(sums.size(), 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    sums[i % sums.size()] += samples[i];
    ++counts[i % sums.size()];
  }
  std::vector<double> means;
  for (std::size_t g = 0; g < sums.size(); ++g) means.push_back(sums[g] / counts[g]);
  return median(means);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

bool read_json_file(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) return false;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  *out = Json::parse(text);
  return true;
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  out << value.dump() << '\n';
}

// --- span recorder -----------------------------------------------------------

namespace {

/// Open spans of the calling thread, innermost last (indices into spans_).
thread_local std::vector<int> open_spans;

/// Layer of a span the library emits through its own Tracer.
std::string layer_of_library_span(const std::string& name) {
  if (name == "enumerate_configurations") return "ilp";
  if (name == "baseline_schedule" || name == "independent_schedule") {
    return "sched";
  }
  if (name == "outer_iteration") return "pso";
  if (name == "evaluate_coverage" || name.rfind("compute_signatures", 0) == 0) {
    return "sim";
  }
  if (name.rfind("job[", 0) == 0) return "svc";
  return "core";  // codesign, eval_batch, unoptimized_search, assemble
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot != std::string::npos) return name.substr(0, dot);
  return layer_of_library_span(name);
}

}  // namespace

Recorder::Recorder() : epoch_(Clock::now()) {}

double Recorder::now() const { return seconds_since(epoch_); }

Recorder::Scope::Scope(Recorder* recorder, std::string name,
                       std::string trace_id)
    : recorder_(recorder) {
  if (recorder_ != nullptr) recorder_->open(std::move(name), std::move(trace_id));
}

Recorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->close();
}

void Recorder::open(std::string name, std::string trace_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  if (trace_id.empty()) {
    // A root span without an id (a dispatcher job on a worker thread) is
    // its own trace.
    trace_id = span.parent >= 0
                   ? spans_[static_cast<std::size_t>(span.parent)].trace_id
                   : name;
  }
  span.name = std::move(name);
  span.trace_id = std::move(trace_id);
  span.start = now();
  span.end = span.start;
  open_spans.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(std::move(span));
}

void Recorder::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (open_spans.empty()) return;
  spans_[static_cast<std::size_t>(open_spans.back())].end = now();
  open_spans.pop_back();
}

int Recorder::add(std::string name, std::string trace_id, int parent,
                  Clock::time_point start, Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), std::move(trace_id), parent,
                    seconds_between(epoch_, start),
                    seconds_between(epoch_, end)});
  return static_cast<int>(spans_.size()) - 1;
}

void Recorder::count(const std::string& name, std::int64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += value;
}

std::int64_t Recorder::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Recorder::total_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::map<std::string, double> Recorder::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run on its thread, one after another, so their
  // durations never overlap and can simply be subtracted.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[layer_of(spans_[i].name)] += self[i];
  }
  return by_layer;
}

void Recorder::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    Json line = Json::object();
    line.set("span", Json(static_cast<std::int64_t>(i)));
    line.set("name", Json(s.name));
    line.set("layer", Json(layer_of(s.name)));
    line.set("trace_id", Json(s.trace_id));
    line.set("parent", Json(static_cast<std::int64_t>(s.parent)));
    line.set("start", Json(s.start));
    line.set("end", Json(s.end));
    out << line.dump() << '\n';
  }
  for (const auto& [name, value] : counters_) {
    Json line = Json::object();
    line.set("counter", Json(name));
    line.set("value", Json(value));
    out << line.dump() << '\n';
  }
}

void RecorderSink::write(const mfd::TraceEvent& event) {
  switch (event.kind) {
    case mfd::TraceEvent::Kind::kSpanBegin:
      recorder_->open(event.name);
      break;
    case mfd::TraceEvent::Kind::kSpanEnd:
      recorder_->close();
      break;
    case mfd::TraceEvent::Kind::kCounter:
      recorder_->count(event.name, event.value);
      break;
  }
}

// --- layer probes --------------------------------------------------------------

void probe_chips(const std::vector<std::string>& chip_texts,
                 mfd::sim::FaultUniverse universe, Recorder* recorder,
                 LayerProbe* probe) {
  for (std::size_t i = 0; i < chip_texts.size(); ++i) {
    const std::string id = "chip" + std::to_string(i);
    Clock::time_point t0 = Clock::now();
    const mfd::arch::Biochip chip = [&] {
      const auto s = span(recorder, "arch.chip_from_string", id);
      return mfd::arch::chip_from_string(chip_texts[i]);
    }();
    probe->chip_parse_s += seconds_since(t0);

    t0 = Clock::now();
    const std::optional<mfd::testgen::TestSuite> suite = [&] {
      const auto s = span(recorder, "testgen.multiport", id);
      return mfd::testgen::generate_test_suite_multiport(chip);
    }();
    probe->multiport_s += seconds_since(t0);
    if (!suite.has_value()) continue;  // counted as 0 vectors
    probe->vectors += suite->size();

    t0 = Clock::now();
    {
      const auto s = span(recorder, "sim.evaluate_coverage", id);
      const mfd::sim::CoverageReport report =
          mfd::sim::evaluate_coverage(chip, suite->vectors, universe, nullptr);
      probe->faults += report.total_faults;
    }
    probe->coverage_s += seconds_since(t0);

    t0 = Clock::now();
    {
      const auto s = span(recorder, "sim.build_diagnosis_table", id);
      const mfd::sim::DiagnosisTable table =
          mfd::sim::build_diagnosis_table(chip, suite->vectors, universe);
      (void)table.distinct_signatures();
    }
    probe->diagnosis_s += seconds_since(t0);
  }
}

void probe_codec(const std::vector<std::string>& spec_lines,
                 const std::vector<mfd::svc::JobResult>& results,
                 Recorder* recorder, LayerProbe* probe) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < spec_lines.size(); ++i) {
    const auto s = span(recorder, "svc.decode_spec", "line" + std::to_string(i));
    (void)mfd::svc::JobSpec::from_json(Json::parse(spec_lines[i]));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto s =
        span(recorder, "svc.encode_result", "line" + std::to_string(i));
    (void)results[i].to_json().dump();
  }
  probe->codec_s += seconds_since(t0);
}

// --- per-layer metrics ---------------------------------------------------------

void add_layer_metrics(const LayerCounts& c, const LayerProbe& p,
                       double trace_overhead_pct, Report* report) {
  report->add("ilp.nodes", static_cast<double>(c.ilp_nodes), "count");
  report->add("ilp.pivots", static_cast<double>(c.ilp_pivots), "count");
  report->add("ilp.lp_solves", static_cast<double>(c.ilp_lp_solves), "count");
  report->add("ilp.warm_start_hit_ratio", c.ilp_warm_start_hit_ratio, "ratio");
  report->add("sched.runs", static_cast<double>(c.sched_runs), "count");
  report->add("sched.feasible_ratio", c.sched_feasible_ratio, "ratio");
  report->add("pso.outer_evaluations",
              static_cast<double>(c.pso_outer_evaluations), "count");
  report->add("pso.inner_evaluations",
              static_cast<double>(c.pso_inner_evaluations), "count");
  report->add("core.evaluations", static_cast<double>(c.core_evaluations),
              "count");
  report->add("core.cache_hit_ratio", c.core_cache_hit_ratio, "ratio");
  report->add("testgen.multiport_s", p.multiport_s, "s");
  report->add("testgen.vectors", static_cast<double>(p.vectors), "count");
  report->add("sim.coverage_s", p.coverage_s, "s");
  report->add("sim.diagnosis_s", p.diagnosis_s, "s");
  report->add("sim.faults", static_cast<double>(p.faults), "count");
  report->add("arch.chip_parse_s", p.chip_parse_s, "s");
  report->add("svc.codec_s", p.codec_s, "s");
  report->add("svc.jobs_shed", static_cast<double>(c.svc_jobs_shed), "count");
  report->add("net.bytes_per_request", c.net_bytes_per_request, "bytes");
  report->add("trace.overhead_pct", trace_overhead_pct, "%");
}

void read_ilp_counters(const Recorder& recorder, LayerCounts* counts) {
  counts->ilp_nodes = recorder.counter("ilp.nodes");
  counts->ilp_pivots = recorder.counter("ilp.pivots");
  counts->ilp_lp_solves = recorder.counter("ilp.lp_solves");
  const std::int64_t attempts = recorder.counter("ilp.warm_start_attempts");
  counts->ilp_warm_start_hit_ratio =
      attempts == 0 ? 0.0
                    : static_cast<double>(recorder.counter("ilp.warm_start_hits")) /
                          static_cast<double>(attempts);
}

void read_eval_stats(const mfd::EvalStats& stats, LayerCounts* counts) {
  counts->sched_runs = stats.scheduler_runs;
  counts->sched_feasible_ratio =
      stats.scheduler_runs == 0
          ? 0.0
          : static_cast<double>(stats.testgen_runs) /
                static_cast<double>(stats.scheduler_runs);
  counts->pso_outer_evaluations = stats.outer_evaluations;
  counts->pso_inner_evaluations = stats.inner_evaluations;
  counts->core_evaluations = stats.evaluations;
  counts->core_cache_hit_ratio = stats.hit_rate();
}

std::map<std::string, std::int64_t> deterministic_counts(
    const LayerCounts& counts, const LayerProbe& probe) {
  return {
      {"ilp.nodes", counts.ilp_nodes},
      {"ilp.pivots", counts.ilp_pivots},
      {"core.evaluations", counts.core_evaluations},
      {"sched.runs", counts.sched_runs},
      {"testgen.vectors", probe.vectors},
      {"sim.faults", probe.faults},
  };
}

void check_repeat(const std::map<std::string, std::int64_t>& first,
                  const std::map<std::string, std::int64_t>& second,
                  Report* report) {
  std::string line = "deterministic counters:";
  for (const auto& [name, value] : first) {
    const auto again = second.find(name);
    const std::int64_t repeat = again == second.end() ? -1 : again->second;
    if (repeat != value) {
      report->fail("counter " + name + " = " + std::to_string(value) +
                   ", then " + std::to_string(repeat) +
                   " on the same work (a wall-clock-bounded path?)");
    }
    line += " " + name + "=" + std::to_string(value);
  }
  report->notes.push_back(line);
}

void note_self_times(const Recorder& recorder, Report* report) {
  std::string line = "layer self time [s]:";
  char buffer[64];
  for (const auto& [layer, seconds] : recorder.self_seconds_by_layer()) {
    std::snprintf(buffer, sizeof buffer, " %s=%.4f", layer.c_str(), seconds);
    line += buffer;
  }
  report->notes.push_back(line);
}

}  // namespace perfbench
