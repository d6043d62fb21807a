// Reproduces Table 1: "Results of DFT Augmentation".
//
// For every chip x assay combination the paper reports two rows:
//   row 1: #DFT valves added | #valves sharing controls | method runtime (s)
//   row 2: execution time — original | DFT without PSO | DFT with PSO
//
// Absolute execution times depend on the reconstructed benchmarks (see
// DESIGN.md); the shapes to check are: every combination succeeds with a
// single pressure source and meter, every DFT valve finds a sharing partner,
// and the PSO recovers the sharing-induced slowdown (column 3 <= column 2).
//
// Environment: MFDFT_BENCH_ITERATIONS (outer PSO iterations, default 12),
// MFDFT_BENCH_FULL=1 (paper's 100 iterations), MFDFT_BENCH_THREADS
// (evaluation threads, default all hardware threads; results identical),
// MFDFT_BENCH_DEADLINE_S (per-combination deadline; partial results from a
// truncated run are then validated instead of completeness — the CTest
// smoke job uses this), MFDFT_BENCH_CHIP (restrict to one chip by name).
// Invocation: ./build/bench/bench_table1 [--json PATH] — the flag also
// writes the table as JSON (schema in EXPERIMENTS.md).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/text_table.hpp"
#include "core/codesign.hpp"

namespace {

struct PaperRow {
  int dft = 0;
  int shared = 0;
  double exec_original = 0;
  double exec_unopt = 0;
  double exec_opt = 0;
};

// Published values (for side-by-side comparison in the printed table).
PaperRow paper_reference(const std::string& chip, const std::string& assay) {
  if (chip == "IVD_chip") {
    if (assay == "IVD") return {6, 6, 270, 580, 310};
    if (assay == "PID") return {7, 7, 840, 1030, 890};
    return {7, 7, 1220, 1320, 1320};
  }
  if (chip == "RA30_chip") {
    if (assay == "IVD") return {6, 6, 270, 440, 280};
    if (assay == "PID") return {6, 6, 950, 1100, 940};
    return {6, 6, 1140, 1190, 1190};
  }
  if (assay == "IVD") return {4, 4, 580, 580, 580};
  if (assay == "PID") return {4, 4, 860, 920, 880};
  return {4, 4, 1640, 1640, 1640};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfd;
  const std::string json_path = bench::json_path(argc, argv);
  const int iterations = bench::outer_iterations(12);
  const int threads = bench::bench_threads();
  const double deadline_s =
      bench::env_number("MFDFT_BENCH_DEADLINE_S", 0.0, 0.0);
  const char* chip_filter = std::getenv("MFDFT_BENCH_CHIP");
  std::printf("Table 1: Results of DFT Augmentation "
              "(outer PSO iterations = %d, threads = %s)\n\n",
              iterations,
              threads == 0 ? "hw" : std::to_string(threads).c_str());
  if (deadline_s > 0.0) {
    std::printf("deadline mode: %.3gs per combination; truncated runs are "
                "checked for a clean partial exit.\n\n",
                deadline_s);
  }

  TextTable table;
  table.set_header({"chip", "assay", "DFT valves", "shared", "runtime [s]",
                    "exec orig", "exec DFT no-PSO", "exec DFT PSO",
                    "paper (orig/noPSO/PSO)", "evals", "hit rate"});

  Json report_json = Json::object();
  report_json.set("bench", Json("table1"));
  report_json.set("iterations", Json(std::int64_t{iterations}));
  report_json.set("threads", Json(std::int64_t{threads}));
  report_json.set("deadline_s", Json(deadline_s));
  Json rows_json = Json::array();

  bool all_ok = true;
  for (bench::Combination& combo : bench::paper_combinations()) {
    if (chip_filter != nullptr && combo.chip.name() != chip_filter) continue;
    core::CodesignOptions options;
    options.outer_iterations = iterations;
    options.config_pool_size = 3;
    options.threads = threads;
    const Status invalid = options.validate();
    if (!invalid.ok()) {
      std::printf("invalid options: %s\n", invalid.to_string().c_str());
      return 1;
    }
    RunControl control;
    if (deadline_s > 0.0) {
      control.set_timeout(deadline_s);
      options.control = &control;
    }
    const core::CodesignResult r =
        core::run_codesign(combo.chip, combo.assay, options);
    const PaperRow paper =
        paper_reference(combo.chip.name(), combo.assay.name());

    bool row_ok = r.ok();
    if (deadline_s > 0.0 && r.status.outcome == Outcome::kDeadlineExceeded) {
      // Clean partial exit: monotone convergence, and any artifacts carried
      // by the truncated result must be fully valid.
      row_ok = true;
      for (std::size_t i = 1; i < r.convergence.size(); ++i) {
        if (r.convergence[i] > r.convergence[i - 1] + 1e-12) row_ok = false;
      }
      if (r.chip.has_value()) {
        if (!r.schedule.has_value() || !r.schedule->feasible ||
            !r.tests.coverage.complete()) {
          row_ok = false;
        }
      }
    }
    Json row_json = Json::object();
    row_json.set("chip", Json(combo.chip.name()));
    row_json.set("assay", Json(combo.assay.name()));
    row_json.set("outcome", Json(std::string(to_string(r.status.outcome))));
    row_json.set("runtime_seconds", Json(r.runtime_seconds));
    if (!row_ok) {
      all_ok = false;
      row_json.set("message", Json(r.status.message));
      rows_json.push_back(std::move(row_json));
      table.add_row({combo.chip.name(), combo.assay.name(), "FAILED",
                     r.status.message, "", "", "", "", "", "", ""});
      continue;
    }
    if (!r.chip.has_value()) {
      // Deadline fired before any valid sharing scheme existed.
      row_json.set("message", Json(r.status.message));
      rows_json.push_back(std::move(row_json));
      table.add_row({combo.chip.name(), combo.assay.name(), "DEADLINE",
                     r.status.message, format_double(r.runtime_seconds, 0),
                     "", "", "", "", "", ""});
      continue;
    }
    row_json.set("dft_valves", Json(std::int64_t{r.dft_valve_count}));
    row_json.set("shared_valves", Json(std::int64_t{r.shared_valve_count}));
    row_json.set("exec_original", Json(r.exec_original));
    row_json.set("exec_dft_unoptimized", Json(r.exec_dft_unoptimized));
    row_json.set("exec_dft_optimized", Json(r.exec_dft_optimized));
    Json paper_json = Json::object();
    paper_json.set("exec_original", Json(paper.exec_original));
    paper_json.set("exec_dft_unoptimized", Json(paper.exec_unopt));
    paper_json.set("exec_dft_optimized", Json(paper.exec_opt));
    row_json.set("paper", std::move(paper_json));
    row_json.set("evaluations", Json(r.stats.evaluations));
    row_json.set("cache_hit_rate", Json(r.stats.hit_rate()));
    rows_json.push_back(std::move(row_json));
    table.add_row(
        {combo.chip.name(), combo.assay.name(),
         std::to_string(r.dft_valve_count), std::to_string(r.shared_valve_count),
         format_double(r.runtime_seconds, 0),
         format_double(r.exec_original, 0),
         format_double(r.exec_dft_unoptimized, 0),
         format_double(r.exec_dft_optimized, 0),
         std::to_string(static_cast<int>(paper.exec_original)) + "/" +
             std::to_string(static_cast<int>(paper.exec_unopt)) + "/" +
             std::to_string(static_cast<int>(paper.exec_opt)),
         std::to_string(r.stats.evaluations),
         format_double(100.0 * r.stats.hit_rate(), 0) + "%"});
  }
  if (!json_path.empty()) {
    report_json.set("rows", std::move(rows_json));
    report_json.save(json_path);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("shape checks: all combinations %s; PSO column <= no-PSO "
              "column by construction.\n",
              all_ok ? "achieved single-source single-meter testability"
                     : "FAILED (see rows)");
  return all_ok ? 0 : 1;
}
