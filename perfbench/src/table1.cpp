// table1: the paper's nine chip x assay combinations through
// core::run_codesign — the only workload where the config-pool ILP and the
// list scheduler inside PSO evaluation do the work.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "arch/chips.hpp"
#include "arch/serialize.hpp"
#include "bench.hpp"
#include "core/codesign.hpp"
#include "sched/assay.hpp"
#include "svc/job.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mfd::Json;

constexpr int kOuterIterations = 2;
constexpr int kEvalThreads = 2;
/// Building the nine inputs takes ~0.15 ms; it is sampled this many times
/// after every combination of every pass (see setup_seconds).
constexpr int kSetupSamplesPerPoint = 3;

/// mRNA_chip stays at its canonical configuration: enumerating past it runs
/// into the per-solve wall-clock limit (see README.md).
int pool_size_for(const std::string& chip) {
  return chip == "mRNA_chip" ? 1 : 3;
}

struct Combination {
  mfd::arch::Biochip chip;
  mfd::sched::Assay assay;
  mfd::core::CodesignOptions options;
};

std::vector<Combination> make_inputs(std::uint64_t seed) {
  std::vector<Combination> combos;
  const std::vector<mfd::arch::Biochip> chips = mfd::arch::make_paper_chips();
  const std::vector<mfd::sched::Assay> assays = mfd::sched::make_paper_assays();
  for (const mfd::arch::Biochip& chip : chips) {
    for (const mfd::sched::Assay& assay : assays) {
      Combination combo{chip, assay, {}};
      combo.options.outer_iterations = kOuterIterations;
      combo.options.config_pool_size = pool_size_for(chip.name());
      combo.options.threads = kEvalThreads;
      combo.options.seed = seed;
      const mfd::Status valid = combo.options.validate();
      MFD_REQUIRE(valid.ok(), "table1 options: " + valid.to_string());
      combos.push_back(std::move(combo));
    }
  }
  return combos;
}

/// The deterministic fields of one result, compared against the reference.
Json row_of(const Combination& combo, const mfd::core::CodesignResult& r) {
  Json row = Json::object();
  row.set("chip", Json(combo.chip.name()));
  row.set("assay", Json(combo.assay.name()));
  row.set("outcome", Json(std::string(mfd::to_string(r.status.outcome))));
  row.set("dft_valves", Json(r.dft_valve_count));
  row.set("shared_valves", Json(r.shared_valve_count));
  row.set("chosen_config", Json(r.chosen_config));
  row.set("exec_original", Json(r.exec_original));
  row.set("exec_dft_unoptimized", Json(r.exec_dft_unoptimized));
  row.set("exec_dft_optimized", Json(r.exec_dft_optimized));
  row.set("exec_dft_independent", Json(r.exec_dft_independent));
  Json convergence = Json::array();
  for (const double value : r.convergence) convergence.push_back(Json(value));
  row.set("convergence", std::move(convergence));
  row.set("evaluations", Json(r.stats.evaluations));
  row.set("cache_hits", Json(r.stats.cache_hits));
  row.set("scheduler_runs", Json(r.stats.scheduler_runs));
  row.set("testgen_runs", Json(r.stats.testgen_runs));
  row.set("outer_evaluations", Json(r.stats.outer_evaluations));
  row.set("inner_evaluations", Json(r.stats.inner_evaluations));
  return row;
}

/// Seed-independent properties every result must have.
void check_invariants(const Combination& combo,
                      const mfd::core::CodesignResult& r, Report* report) {
  const std::string what = combo.chip.name() + "/" + combo.assay.name();
  if (!r.ok()) {
    report->fail(what + ": " + r.status.to_string());
    return;
  }
  if (!r.plan.feasible || r.plan.source < 0 || r.plan.meter < 0 ||
      !r.chip.has_value() || !r.tests.coverage.complete()) {
    report->fail(what + ": no complete single-source single-meter test suite");
  }
  if (r.exec_dft_optimized > r.exec_dft_unoptimized + 1e-9) {
    report->fail(what + ": PSO result slower than the no-PSO scheme");
  }
}

struct Pass {
  /// Sum of the nine calls' times.
  double wall_s = 0.0;
  std::vector<double> call_s;
  std::vector<mfd::core::CodesignResult> results;
  Json rows = Json::array();
};

/// Runs the nine combinations; `between` (if set) runs after each call,
/// outside its time.
Pass run_pass(const std::vector<Combination>& combos, Recorder* recorder,
              const mfd::RunControl* control,
              const std::function<void()>& between) {
  Pass pass;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    mfd::core::CodesignOptions options = combos[i].options;
    options.control = control;
    const Clock::time_point t0 = Clock::now();
    {
      const auto s = span(recorder, "core.run_codesign",
                          combos[i].chip.name() + "/" + combos[i].assay.name());
      pass.results.push_back(
          mfd::core::run_codesign(combos[i].chip, combos[i].assay, options));
    }
    pass.call_s.push_back(seconds_since(t0));
    pass.wall_s += pass.call_s.back();
    if (between) between();
  }
  for (std::size_t i = 0; i < combos.size(); ++i) {
    pass.rows.push_back(row_of(combos[i], pass.results[i]));
  }
  return pass;
}

mfd::EvalStats total_stats(const Pass& pass) {
  mfd::EvalStats total;
  for (const mfd::core::CodesignResult& r : pass.results) total += r.stats;
  return total;
}

}  // namespace

Report run_table1(const Args& args) {
  Report report;
  report.stamp.set("eval_threads", Json(kEvalThreads));
  report.stamp.set("outer_iterations", Json(kOuterIterations));
  report.stamp.set("codesign_seed",
                   Json(static_cast<std::int64_t>(args.codesign_seed)));

  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  const std::vector<Combination> combos = make_inputs(args.codesign_seed);
  setup_s.push_back(seconds_since(t0));
  const auto sample_setup = [&] {
    for (int k = 0; k < kSetupSamplesPerPoint; ++k) {
      t0 = Clock::now();
      const std::vector<Combination> again = make_inputs(args.codesign_seed);
      setup_s.push_back(seconds_since(t0));
    }
  };

  const std::string reference_path = args.reference_dir + "/table1.json";
  const bool default_seed = args.codesign_seed == kBaseSeed;
  Json reference = Json::object();
  const bool have_reference = read_json_file(reference_path, &reference);
  if (!have_reference && !args.write_reference) {
    report.fail("missing reference " + reference_path);
  }

  // Every pass must reproduce the first one exactly and, at the default
  // seed, the committed rows.
  std::string first_rows;
  const auto check_pass = [&](const Pass& pass) {
    report.attempted += static_cast<std::int64_t>(combos.size());
    for (std::size_t i = 0; i < combos.size(); ++i) {
      check_invariants(combos[i], pass.results[i], &report);
    }
    const std::string rows = pass.rows.dump();
    if (first_rows.empty()) first_rows = rows;
    if (rows != first_rows) report.fail("pass results differ between passes");
    if (default_seed && have_reference && !args.write_reference) {
      const Json* want = reference.get("rows");
      if (want == nullptr || want->dump() != rows) {
        report.fail("results differ from " + reference_path);
      }
    }
  };

  if (!args.trace) {
    // Passes run while the next one still fits in the measuring time.
    std::vector<double> wall_s;
    std::vector<std::vector<double>> call_s(combos.size());
    const Clock::time_point start = Clock::now();
    while (wall_s.empty() ||
           seconds_since(start) + wall_s.back() <= args.seconds) {
      const Pass pass = run_pass(combos, nullptr, nullptr, sample_setup);
      check_pass(pass);
      wall_s.push_back(pass.wall_s);
      for (std::size_t i = 0; i < combos.size(); ++i) {
        call_s[i].push_back(pass.call_s[i]);
      }
    }
    // Latency of a combination: its median over the passes.
    std::vector<double> combo_s;
    for (const std::vector<double>& runs : call_s) combo_s.push_back(median(runs));
    if (args.write_reference && default_seed) {
      Json written = Json::object();
      written.set("codesign_seed", Json(static_cast<std::int64_t>(kBaseSeed)));
      written.set("rows", Json::parse(first_rows));
      write_json_file(reference_path, written);
    }
    Json passes = Json::array();
    for (const double s : wall_s) passes.push_back(Json(s));
    report.stamp.set("pass_wall_s", std::move(passes));
    report.stamp.set("setup_samples",
                     Json(static_cast<std::int64_t>(setup_s.size())));
    report.add("wall_s", median(wall_s), "s");
    report.add("p50_ms", 1e3 * quantile(combo_s, 0.50), "ms");
    report.add("p90_ms", 1e3 * quantile(combo_s, 0.90), "ms");
    report.add("setup_s", setup_seconds(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced mode: one untraced pass; one pass with every library span and
  // counter routed into the recorder, the difference being the overhead;
  // and the same pass again with only the library's own trace recorded,
  // whose deterministic counts must equal the traced pass's.
  const Pass plain = run_pass(combos, nullptr, nullptr, nullptr);
  check_pass(plain);
  LibraryTrace trace;
  mfd::RunControl control;
  control.set_tracer(&trace.tracer);
  Recorder& recorder = trace.recorder;
  const Pass traced = [&] {
    const auto s = span(&recorder, "bench.table1_pass", "pass");
    return run_pass(combos, &recorder, &control, nullptr);
  }();
  check_pass(traced);
  LibraryTrace repeat_trace;
  mfd::RunControl repeat_control;
  repeat_control.set_tracer(&repeat_trace.tracer);
  const Pass repeat = run_pass(combos, nullptr, &repeat_control, nullptr);
  check_pass(repeat);

  const mfd::EvalStats stats = total_stats(traced);
  LayerCounts counts;
  read_ilp_counters(recorder, &counts);
  read_eval_stats(stats, &counts);
  LayerCounts repeat_counts;
  read_ilp_counters(repeat_trace.recorder, &repeat_counts);
  read_eval_stats(total_stats(repeat), &repeat_counts);

  std::vector<std::string> chip_texts;
  for (const mfd::arch::Biochip& chip : mfd::arch::make_paper_chips()) {
    chip_texts.push_back(mfd::arch::chip_to_string(chip));
  }
  LayerProbe probe;
  probe_chips(chip_texts, mfd::sim::FaultUniverse::kStuckAt, &recorder,
              &probe);
  LayerProbe repeat_probe;
  probe_chips(chip_texts, mfd::sim::FaultUniverse::kStuckAt, nullptr,
              &repeat_probe);
  std::vector<std::string> spec_lines;
  std::vector<mfd::svc::JobResult> results;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    mfd::svc::JobSpec spec;
    spec.kind = mfd::svc::JobKind::kCodesign;
    spec.chip = combos[i].chip.name();
    spec.assay = combos[i].assay.name();
    spec.outer_iterations = kOuterIterations;
    spec.config_pool_size = combos[i].options.config_pool_size;
    spec.threads = kEvalThreads;
    spec.seed = args.codesign_seed;
    spec_lines.push_back(spec.to_json().dump());
    const mfd::core::CodesignResult& r = traced.results[i];
    mfd::svc::JobResult result;
    result.kind = spec.kind;
    result.status = r.status;
    result.dft_valves = r.dft_valve_count;
    result.shared_valves = r.shared_valve_count;
    result.exec_original = r.exec_original;
    result.exec_dft_unoptimized = r.exec_dft_unoptimized;
    result.exec_dft_optimized = r.exec_dft_optimized;
    result.stats = r.stats;
    if (r.chip.has_value()) result.chip_text = mfd::arch::chip_to_string(*r.chip);
    results.push_back(std::move(result));
  }
  probe_codec(spec_lines, results, &recorder, &probe);

  const double overhead_pct = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s;
  add_layer_metrics(counts, probe, overhead_pct, &report);

  char line[256];
  std::snprintf(line, sizeof line,
                "table1 layers: ilp.enumerate_s=%.4f core.eval_batch_s=%.4f "
                "sched.busy_s=%.4f testgen.busy_s=%.4f wall_s plain=%.4f "
                "traced=%.4f",
                recorder.total_seconds("enumerate_configurations"),
                recorder.total_seconds("eval_batch"), stats.schedule_seconds,
                stats.testgen_seconds, plain.wall_s, traced.wall_s);
  report.notes.push_back(line);
  note_self_times(recorder, &report);
  check_repeat(deterministic_counts(counts, probe),
               deterministic_counts(repeat_counts, repeat_probe), &report);
  recorder.write_jsonl(args.state_dir + "/trace-table1.jsonl");
  return report;
}

}  // namespace perfbench
