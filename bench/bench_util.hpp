// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/chips.hpp"
#include "flags.hpp"
#include "sched/assay.hpp"

namespace mfd::bench {

/// Parses the bench binaries' shared command line. The only flag is
/// `--json PATH`: write a machine-readable summary of the run to PATH (the
/// schemas are documented in EXPERIMENTS.md). Returns the path, empty when
/// the flag is absent; exits 2 on anything unrecognized.
inline std::string json_path(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
    std::exit(2);
  }
  return path;
}

/// Whether environment knob `name` is set to something other than "" or
/// "0" (MFDFT_BENCH_FULL=1 — paper-scale settings, 100 iterations).
inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) != "0" &&
         std::string(value) != "";
}

/// Environment knob `name` as a number of at least `min`, or `fallback`
/// when it is unset or empty. A value that does not parse whole ("1O",
/// "two") or lies below `min` exits 2 naming the knob. The reproduction
/// binaries read MFDFT_BENCH_ITERATIONS, MFDFT_BENCH_THREADS and
/// MFDFT_BENCH_DEADLINE_S (per-combination run deadline, 0 = none).
template <typename T>
T env_number(const char* name, T fallback, T min) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  T parsed = fallback;
  if (!tools::parse_whole(value, &parsed) || parsed < min) {
    std::fprintf(stderr, "bad value '%s' for %s\n", value, name);
    std::exit(2);
  }
  return parsed;
}

/// Outer PSO iterations for codesign benches: the paper uses 100; the
/// default here is reduced so the full bench suite runs in minutes on a
/// laptop. Set MFDFT_BENCH_FULL=1 for the paper-scale run.
inline int outer_iterations(int reduced_default) {
  if (env_flag("MFDFT_BENCH_FULL")) return 100;
  return env_number("MFDFT_BENCH_ITERATIONS", reduced_default, 1);
}

/// Evaluation threads for codesign benches: MFDFT_BENCH_THREADS, where 0
/// (the default) means all hardware threads. Results are identical for every
/// value; only the wall clock changes.
inline int bench_threads() { return env_number("MFDFT_BENCH_THREADS", 0, 0); }

struct Combination {
  arch::Biochip chip;
  sched::Assay assay;
};

/// The nine chip x assay combinations of Table 1, in the paper's order.
inline std::vector<Combination> paper_combinations() {
  std::vector<Combination> combos;
  for (const arch::Biochip& chip : arch::make_paper_chips()) {
    for (const sched::Assay& assay : sched::make_paper_assays()) {
      combos.push_back({chip, assay});
    }
  }
  return combos;
}

/// Renders a crude horizontal bar for figure-style console output.
inline std::string bar(double value, double scale) {
  const int width = value <= 0 ? 0 : static_cast<int>(value / scale + 0.5);
  return std::string(static_cast<std::size_t>(width), '#');
}

}  // namespace mfd::bench
