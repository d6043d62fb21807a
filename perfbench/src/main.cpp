// perfbench: runs one workload and prints its metrics. The last line of
// stdout is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Usage (normally through run.py, which builds this binary first):
//   perfbench --workload table1|fpva_campaign|daemon [--seed N]
//             [--seconds S] [--trace 0|1] [--codesign-seed N]
//             [--family-seed N] [--arrival-seed N] --reference-dir DIR
//             --state-dir DIR [--write-reference]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_LIB_BUILD_TYPE
#define PERFBENCH_LIB_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LIB_COMPILER
#define PERFBENCH_LIB_COMPILER "unknown"
#endif

namespace {

using mfd::Json;
using perfbench::Args;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table1|fpva_campaign|daemon [--seed N] [--seconds S] "
               "[--trace 0|1] [--codesign-seed N] [--family-seed N] "
               "[--arrival-seed N] --reference-dir DIR --state-dir DIR "
               "[--write-reference]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage(("bad number: " + text).c_str());
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool family_seed = false;
  bool arrival_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      args.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--codesign-seed") {
      args.codesign_seed = parse_u64(value);
    } else if (flag == "--family-seed") {
      args.family_seed = parse_u64(value);
      family_seed = true;
    } else if (flag == "--arrival-seed") {
      args.arrival_seed = parse_u64(value);
      arrival_seed = true;
    } else if (flag == "--reference-dir") {
      args.reference_dir = value;
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  // The PSO seed is a setting of table1, not one of its inputs (the paper's
  // chips and assays), so it does not follow --seed: runs on every --seed do
  // the same work unless --codesign-seed asks for another trajectory.
  if (!family_seed) args.family_seed = perfbench::kBaseSeed + args.seed;
  if (!arrival_seed) args.arrival_seed = perfbench::kBaseSeed + args.seed;
  if (args.workload.empty()) usage("--workload is required");
  if (args.reference_dir.empty() || args.state_dir.empty()) {
    usage("--reference-dir and --state-dir are required");
  }
  if (args.seconds < 1.0) usage("--seconds must be at least 1");
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The aggregate "cpu" line of /proc/stat: jiffies per state; index 7 is
/// steal (time the hypervisor ran something else on a vCPU).
std::vector<long long> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  std::vector<long long> jiffies;
  long long value = 0;
  while (fields >> value) jiffies.push_back(value);
  return jiffies;
}

/// Steal as a percentage of all vCPU time between two samples; a run on a
/// contended host reads slow, and this shows why.
double steal_pct(const std::vector<long long>& before,
                 const std::vector<long long>& after) {
  if (before.size() < 8 || after.size() < 8) return 0.0;
  long long total = 0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    total += after[i] - before[i];
  }
  return total <= 0 ? 0.0
                    : 100.0 * static_cast<double>(after[7] - before[7]) /
                          static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with asserts "
                       "enabled (NDEBUG unset); build Release\n");
  return 2;
#endif
  if (std::string(PERFBENCH_LIB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: the library build type is '%s'; only Release "
                 "builds are measured\n",
                 PERFBENCH_LIB_BUILD_TYPE);
    return 2;
  }

  const std::vector<long long> jiffies_before = cpu_jiffies();
  perfbench::Report report;
  try {
    if (args.workload == "table1") {
      report = perfbench::run_table1(args);
    } else if (args.workload == "fpva_campaign") {
      report = perfbench::run_fpva_campaign(args);
    } else if (args.workload == "daemon") {
      report = perfbench::run_daemon(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }

  Json stamp = Json::object();
  stamp.set("workload", Json(args.workload));
  stamp.set("mode", Json(std::string(args.trace ? "traced" : "untraced")));
  stamp.set("seed", Json(static_cast<std::int64_t>(args.seed)));
  stamp.set("seconds", Json(args.seconds));
  stamp.set("nproc",
            Json(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  stamp.set("cpu", Json(cpu_model()));
  stamp.set("compiler", Json(std::string(PERFBENCH_LIB_COMPILER)));
  stamp.set("build_type", Json(std::string(PERFBENCH_LIB_BUILD_TYPE)));
  stamp.set("cpu_steal_pct", Json(steal_pct(jiffies_before, cpu_jiffies())));
  for (const auto& [key, value] : report.stamp.as_object()) stamp.set(key, value);
  std::printf("stamp %s\n", stamp.dump().c_str());
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());

  Json metrics = Json::object();
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-26s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  const double error_rate =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%-26s %14.6f %s (%lld of %lld operations)\n", "error_rate",
              error_rate, "ratio", static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  std::size_t shown = 0;
  for (const std::string& error : report.errors) {
    if (++shown > 20) break;
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  Json result = Json::object();
  result.set("correct", Json(correct));
  result.set("attempted", Json(report.attempted));
  result.set("failed", Json(report.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
