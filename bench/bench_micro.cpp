// Micro-benchmarks (google-benchmark) of the substrate hot paths: graph
// queries, max-flow, LP/ILP solves, pressure simulation, vector generation,
// and scheduling. These are the inner loops of the PSO fitness evaluation,
// so their cost bounds the codesign runtime directly.
//
// Run:  ./build/bench/bench_micro [--json PATH | google-benchmark flags]
//   --json PATH — skip the google-benchmark suite and instead time the LP
//   engine (micro LP plus end-to-end plan_dft_paths on the paper chips),
//   writing BENCH_ilp.json (schema in EXPERIMENTS.md). MFDFT_BENCH_REPS
//   controls the best-of reps, MFDFT_BENCH_CHIP restricts the chips. Exits
//   1 when a chip's plan is infeasible, not from the exact ILP, or carries
//   a non-ok status, or when no chip matches the restriction.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "arch/chips.hpp"
#include "bench_util.hpp"
#include "common/json.hpp"
#include "core/codesign.hpp"
#include "graph/maxflow.hpp"
#include "graph/traversal.hpp"
#include "ilp/revised_simplex.hpp"
#include "ilp/solver.hpp"
#include "sched/scheduler.hpp"
#include "sim/pressure.hpp"
#include "testgen/path_ilp.hpp"
#include "testgen/vector_gen.hpp"

namespace {

using namespace mfd;

void BM_GridReachability(benchmark::State& state) {
  const arch::Biochip chip = arch::make_mrna_chip();
  const graph::EdgeMask mask = chip.channel_mask();
  const graph::NodeId s = chip.port(0).node;
  const graph::NodeId t = chip.port(1).node;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::reachable(chip.grid().graph(), s, t, mask));
  }
}
BENCHMARK(BM_GridReachability);

void BM_ShortestPathWeighted(benchmark::State& state) {
  const arch::Biochip chip = arch::make_mrna_chip();
  const graph::EdgeMask mask = chip.channel_mask();
  const std::vector<double> weights(
      static_cast<std::size_t>(chip.grid().graph().edge_count()), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::shortest_path_weighted(
        chip.grid().graph(), chip.port(0).node, chip.port(1).node, weights,
        mask));
  }
}
BENCHMARK(BM_ShortestPathWeighted);

void BM_MaxFlowMinCut(benchmark::State& state) {
  const arch::Biochip chip = arch::make_mrna_chip();
  const graph::EdgeMask mask = chip.channel_mask();
  const std::vector<double> capacity(
      static_cast<std::size_t>(chip.grid().graph().edge_count()), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(chip.grid().graph(),
                                             chip.port(0).node,
                                             chip.port(1).node, capacity,
                                             mask));
  }
}
BENCHMARK(BM_MaxFlowMinCut);

void BM_LpRelaxation(benchmark::State& state) {
  // A knapsack-style LP with the size of a small path model.
  ilp::Model model;
  ilp::LinearExpr objective;
  for (int i = 0; i < 120; ++i) {
    const ilp::VarId v = model.add_binary();
    objective.add(v, 1.0 + (i % 7) * 0.1);
  }
  for (int c = 0; c < 40; ++c) {
    ilp::LinearExpr row;
    for (int i = c; i < 120; i += 3) row.add(i, 1.0);
    model.add_constraint(std::move(row), ilp::Sense::kGreaterEqual, 2.0);
  }
  model.set_objective(std::move(objective));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solve_lp(model));
  }
}
BENCHMARK(BM_LpRelaxation);

void BM_PressureMeasure(benchmark::State& state) {
  const arch::Biochip chip = arch::make_ra30_chip();
  const sim::PressureSimulator simulator(chip);
  sim::TestVector vector;
  vector.kind = sim::VectorKind::kPath;
  vector.source = 0;
  vector.meter = 1;
  vector.control_open.assign(
      static_cast<std::size_t>(chip.control_count()), 1);
  vector.expected_pressure = true;
  const sim::Fault fault{3, sim::FaultKind::kStuckAt0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.detects(vector, fault));
  }
}
BENCHMARK(BM_PressureMeasure);

void BM_VectorGeneration(benchmark::State& state) {
  const arch::Biochip chip = arch::make_ra30_chip();
  for (auto _ : state) {
    benchmark::DoNotOptimize(testgen::generate_test_suite_multiport(chip));
  }
}
BENCHMARK(BM_VectorGeneration);

void BM_ScheduleIvd(benchmark::State& state) {
  const arch::Biochip chip = arch::make_ivd_chip();
  const sched::Assay assay = sched::make_ivd_assay();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::schedule_assay(chip, assay));
  }
}
BENCHMARK(BM_ScheduleIvd);

void BM_ScheduleCpaOnMrna(benchmark::State& state) {
  const arch::Biochip chip = arch::make_mrna_chip();
  const sched::Assay assay = sched::make_cpa_assay();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::schedule_assay(chip, assay));
  }
}
BENCHMARK(BM_ScheduleCpaOnMrna);

// ---- --json mode: LP engine timings and plan checks ---------------------

// Best-of-`reps` wall time of `body()`, seconds.
template <typename Body>
double best_of(int reps, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

// The BM_LpRelaxation model, reused for the --json report.
ilp::Model micro_lp_model() {
  ilp::Model model;
  ilp::LinearExpr objective;
  for (int i = 0; i < 120; ++i) {
    const ilp::VarId v = model.add_binary();
    objective.add(v, 1.0 + (i % 7) * 0.1);
  }
  for (int c = 0; c < 40; ++c) {
    ilp::LinearExpr row;
    for (int i = c; i < 120; i += 3) row.add(i, 1.0);
    model.add_constraint(std::move(row), ilp::Sense::kGreaterEqual, 2.0);
  }
  model.set_objective(std::move(objective));
  return model;
}

int run_ilp_report(const std::string& json_path) {
  const int reps = bench::env_int("MFDFT_BENCH_REPS", 3);
  const char* chip_filter = std::getenv("MFDFT_BENCH_CHIP");
  Json report = Json::object();
  report.set("bench", Json("ilp"));
  report.set("reps", Json(std::int64_t{reps}));

  {
    const ilp::Model model = micro_lp_model();
    const double revised_s =
        best_of(reps, [&] { benchmark::DoNotOptimize(ilp::solve_lp(model)); });
    Json lp = Json::object();
    lp.set("variables", Json(std::int64_t{model.variable_count()}));
    lp.set("rows", Json(std::int64_t{model.constraint_count()}));
    lp.set("revised_seconds", Json(revised_s));
    report.set("lp", std::move(lp));
    std::printf("lp relaxation: %.6fs\n", revised_s);
  }

  int failures = 0;
  Json chips = Json::array();
  for (const arch::Biochip& chip : arch::make_paper_chips()) {
    if (chip_filter != nullptr && chip.name() != chip_filter) continue;
    testgen::PathPlan plan;
    const double revised_s =
        best_of(reps, [&] { plan = testgen::plan_dft_paths(chip); });
    if (!plan.feasible || plan.method != testgen::PathPlan::Method::kExactIlp ||
        !plan.status.ok()) {
      const std::string why =
          plan.status.ok() ? "infeasible" : plan.status.to_string();
      std::fprintf(stderr, "%s: no exact plan (%s)\n", chip.name().c_str(),
                   why.c_str());
      ++failures;
    }
    const ilp::SolveStats& stats = plan.stats;
    const double hit_rate =
        stats.warm_start_attempts > 0
            ? static_cast<double>(stats.warm_start_hits) /
                  static_cast<double>(stats.warm_start_attempts)
            : 0.0;
    Json row = Json::object();
    row.set("chip", Json(chip.name()));
    row.set("feasible", Json(plan.feasible));
    row.set("paths_used", Json(std::int64_t{plan.paths_used}));
    row.set("added_edges",
            Json(static_cast<std::int64_t>(plan.added_edges.size())));
    row.set("revised_seconds", Json(revised_s));
    row.set("lp_solves", Json(stats.lp_solves));
    row.set("pivots", Json(stats.pivots));
    row.set("refactorizations", Json(stats.refactorizations));
    row.set("warm_start_attempts", Json(stats.warm_start_attempts));
    row.set("warm_start_hits", Json(stats.warm_start_hits));
    row.set("warm_start_hit_rate", Json(hit_rate));
    chips.push_back(std::move(row));
    std::printf("%-10s %.3fs (pivots %lld, warm hit rate %.2f)\n",
                chip.name().c_str(), revised_s,
                static_cast<long long>(stats.pivots), hit_rate);
  }
  if (chips.as_array().empty()) {
    std::fprintf(stderr, "no paper chip matches MFDFT_BENCH_CHIP\n");
    ++failures;
  }
  report.set("chips", std::move(chips));
  report.save(json_path);
  std::printf("wrote %s\n", json_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--json PATH` switches to the ILP report; anything else goes to
  // google-benchmark unchanged.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      return run_ilp_report(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
