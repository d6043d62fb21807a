// Reproduces Figure 9: convergence of the two-level PSO — best application
// execution time per outer iteration for three chip-application
// combinations.
//
// Expected shape: non-increasing curves that flatten well before the last
// iteration (the paper reports stability from ~iteration 80 of 100).
//
// Every combination runs twice — threads=1 (exact serial pipeline) and the
// configured thread count — and the two convergence traces must be
// bit-identical; the bench reports the wall-clock speedup and the
// fitness-cache hit rate alongside the curves.
//
// Environment: MFDFT_BENCH_FULL=1 runs the paper's 100 iterations; the
// default is 25 (MFDFT_BENCH_ITERATIONS) to keep the bench suite fast.
// MFDFT_BENCH_THREADS sets the parallel thread count (default: all
// hardware threads).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/text_table.hpp"
#include "common/thread_pool.hpp"
#include "core/codesign.hpp"

int main() {
  using namespace mfd;
  const int iterations = bench::outer_iterations(25);
  const int threads = bench::bench_threads() == 0
                          ? ThreadPool::hardware_threads()
                          : bench::bench_threads();
  std::printf("Figure 9: PSO convergence (%d outer iterations, "
              "threads=1 vs threads=%d)\n\n",
              iterations, threads);

  struct Combo {
    arch::Biochip chip;
    sched::Assay assay;
  };
  std::vector<Combo> combos;
  combos.push_back({arch::make_ivd_chip(), sched::make_ivd_assay()});
  combos.push_back({arch::make_ra30_chip(), sched::make_pid_assay()});
  combos.push_back({arch::make_mrna_chip(), sched::make_cpa_assay()});

  bool all_monotone = true;
  bool all_identical = true;
  CsvWriter csv({"combination", "iteration", "best_execution_time_s"});
  for (Combo& combo : combos) {
    core::CodesignOptions options;
    options.outer_iterations = iterations;
    options.config_pool_size = 3;
    const Status invalid = options.validate();
    if (!invalid.ok()) {
      std::printf("invalid options: %s\n", invalid.to_string().c_str());
      return 1;
    }

    options.threads = 1;
    const core::CodesignResult serial =
        core::run_codesign(combo.chip, combo.assay, options);
    options.threads = threads;
    const core::CodesignResult r =
        core::run_codesign(combo.chip, combo.assay, options);
    std::printf("%s / %s:%s\n", combo.chip.name().c_str(),
                combo.assay.name().c_str(),
                r.ok() ? "" : (" FAILED: " + r.status.message).c_str());
    if (!r.ok()) continue;

    if (serial.convergence != r.convergence ||
        serial.sharing.partner != r.sharing.partner) {
      all_identical = false;
      std::printf("  MISMATCH: threads=%d diverged from the serial run\n",
                  threads);
    }
    std::printf(
        "  threads=1: %.1fs   threads=%d: %.1fs   speedup: %.2fx   "
        "cache hit rate: %.0f%% (%lld evals, %lld hits)\n",
        serial.runtime_seconds, r.threads_used, r.runtime_seconds,
        r.runtime_seconds > 0 ? serial.runtime_seconds / r.runtime_seconds
                              : 0.0,
        100.0 * r.stats.hit_rate(),
        static_cast<long long>(r.stats.evaluations),
        static_cast<long long>(r.stats.cache_hits));

    // Print the series, then a sparkline-style view.
    std::printf("  iteration: best execution time [s]\n");
    const std::size_t stride =
        std::max<std::size_t>(1, r.convergence.size() / 20);
    for (std::size_t i = 0; i < r.convergence.size(); i += stride) {
      std::printf("  %4zu: %7.1f  %s\n", i, r.convergence[i],
                  bench::bar(r.convergence[i], r.convergence[0] / 40.0)
                      .c_str());
    }
    std::printf("  final: %7.1f (original chip: %.1f)\n\n",
                r.convergence.back(), r.exec_original);

    for (std::size_t i = 1; i < r.convergence.size(); ++i) {
      if (r.convergence[i] > r.convergence[i - 1] + 1e-9) {
        all_monotone = false;
      }
    }
    const std::string label =
        combo.chip.name() + "/" + combo.assay.name();
    for (std::size_t i = 0; i < r.convergence.size(); ++i) {
      csv.add_row({label, std::to_string(i),
                   format_double(r.convergence[i], 1)});
    }
  }
  csv.save("fig9_convergence.csv");
  std::printf("series written to fig9_convergence.csv\n");
  std::printf("shape check: curves are %s and flatten before the final "
              "iteration.\n",
              all_monotone ? "monotone non-increasing" : "NOT monotone (bug)");
  std::printf("determinism check: parallel runs are %s to the serial "
              "pipeline.\n",
              all_identical ? "bit-identical" : "NOT identical (bug)");
  return all_monotone && all_identical ? 0 : 1;
}
