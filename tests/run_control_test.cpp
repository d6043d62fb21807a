// Run control, tracing and the Status-based codesign API: cooperative
// stops unwind every layer, truncated runs carry valid partial artifacts,
// and the trace/control machinery never perturbs an unbounded run.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "arch/chips.hpp"
#include "common/run_control.hpp"
#include "common/trace.hpp"
#include "core/codesign.hpp"
#include "pso/pso.hpp"
#include "sched/scheduler.hpp"

namespace mfd {
namespace {

TEST(RunControlTest, DefaultNeverStops) {
  RunControl control;
  EXPECT_FALSE(control.has_deadline());
  EXPECT_EQ(control.check(), StopReason::kNone);
  EXPECT_EQ(control.stop_observed(), StopReason::kNone);
  EXPECT_FALSE(stop_requested(&control));
  EXPECT_FALSE(stop_requested(nullptr));
}

TEST(RunControlTest, CancelIsObservedAndSticky) {
  RunControl control;
  control.request_cancel();
  EXPECT_TRUE(control.cancel_requested());
  EXPECT_EQ(control.check(), StopReason::kCancelled);
  EXPECT_EQ(control.stop_observed(), StopReason::kCancelled);
  // Sticky even if a deadline also expires afterwards.
  control.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::seconds(1));
  EXPECT_EQ(control.check(), StopReason::kCancelled);
}

TEST(RunControlTest, ExpiredDeadlineStopsAndStaysStopped) {
  RunControl control;
  control.set_timeout(-1.0);
  EXPECT_TRUE(control.has_deadline());
  EXPECT_EQ(control.check(), StopReason::kDeadlineExceeded);
  // A later cancel does not rewrite the first observed reason.
  control.request_cancel();
  EXPECT_EQ(control.check(), StopReason::kDeadlineExceeded);
  EXPECT_EQ(outcome_of(control.stop_observed()), Outcome::kDeadlineExceeded);
}

TEST(RunControlTest, StopObservedOnlyAfterCheck) {
  RunControl control;
  control.set_timeout(-1.0);
  // stop_observed() never reads the clock: nothing recorded yet.
  EXPECT_EQ(control.stop_observed(), StopReason::kNone);
  EXPECT_EQ(control.check(), StopReason::kDeadlineExceeded);
  EXPECT_EQ(control.stop_observed(), StopReason::kDeadlineExceeded);
}

TEST(RunControlTest, ParentStopReachesLinkedChild) {
  RunControl parent;
  RunControl child;
  child.set_parent(&parent);
  EXPECT_EQ(child.check(), StopReason::kNone);
  parent.request_cancel();
  EXPECT_EQ(child.check(), StopReason::kCancelled);
  EXPECT_FALSE(child.cancel_requested());  // the child's own token is untouched

  RunControl expired;
  expired.set_timeout(-1.0);
  RunControl linked;
  linked.set_parent(&expired);
  EXPECT_EQ(linked.check(), StopReason::kDeadlineExceeded);
}

TEST(RunControlTest, ProgressCallbackDeliveredAtReports) {
  RunControl control;
  std::vector<RunProgress> seen;
  control.set_progress_callback(
      [&seen](const RunProgress& p) { seen.push_back(p); });
  control.report_progress({"stage_a", 1, 10, 5.0});
  control.report_progress({"stage_a", 2, 10, 4.0});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].stage, "stage_a");
  EXPECT_EQ(seen[1].completed, 2);
  EXPECT_DOUBLE_EQ(seen[1].best_value, 4.0);
}

TEST(StatusTest, FormattingAndPredicates) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s =
      Status::Fail(Outcome::kInfeasible, "baseline_schedule", "no schedule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(std::string(to_string(s.outcome)), "infeasible");
  EXPECT_NE(s.to_string().find("baseline_schedule"), std::string::npos);
  EXPECT_NE(s.to_string().find("no schedule"), std::string::npos);
}

TEST(StatusTest, OutcomeNamesRoundTripThroughStrings) {
  // Every outcome — including kUnavailable, the quarantine verdict for
  // jobs that keep crashing their worker — must survive the JSONL wire:
  // outcome_name() and outcome_from_name() are exact inverses.
  const Outcome all[] = {
      Outcome::kOk,           Outcome::kCancelled,
      Outcome::kDeadlineExceeded, Outcome::kInvalidOptions,
      Outcome::kInfeasible,   Outcome::kInternalError,
      Outcome::kUnavailable,
  };
  for (const Outcome outcome : all) {
    const char* name = outcome_name(outcome);
    ASSERT_NE(name, nullptr);
    const std::optional<Outcome> parsed = outcome_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, outcome) << name;
  }
  EXPECT_EQ(std::string(outcome_name(Outcome::kUnavailable)), "unavailable");
  EXPECT_FALSE(outcome_from_name("no_such_outcome").has_value());
  EXPECT_FALSE(outcome_from_name("").has_value());
}

TEST(TraceTest, JsonlRoundTripWithBalancedNesting) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  Tracer tracer(&sink);
  ASSERT_TRUE(tracer.enabled());
  {
    const auto outer = tracer.span("outer \"quoted\"");
    tracer.counter("items", 42);
    { const auto inner = tracer.span("inner"); }
  }
  std::istringstream in(out.str());
  const std::vector<TraceEvent> events = parse_trace_jsonl(in);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSpanBegin);
  EXPECT_EQ(events[0].name, "outer \"quoted\"");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kCounter);
  EXPECT_EQ(events[1].value, 42);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kSpanBegin);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[3].kind, TraceEvent::Kind::kSpanEnd);
  EXPECT_EQ(events[3].name, "inner");
  EXPECT_EQ(events[4].kind, TraceEvent::Kind::kSpanEnd);
  EXPECT_EQ(events[4].name, "outer \"quoted\"");
  // Nesting is balanced: every begin has a matching end at the same depth.
  int depth = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kSpanBegin) {
      EXPECT_EQ(event.depth, depth);
      ++depth;
    } else if (event.kind == TraceEvent::Kind::kSpanEnd) {
      --depth;
      EXPECT_EQ(event.depth, depth);
      EXPECT_GE(event.duration, 0.0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, DisabledTracerAndNullHelpersAreInert) {
  Tracer disabled;
  EXPECT_FALSE(disabled.enabled());
  { const auto span = disabled.span("nothing"); }
  disabled.counter("nothing", 1);
  { const auto span = trace_span(nullptr, "nothing"); }
  trace_counter(nullptr, "nothing", 1);
}

TEST(ValidateTest, AcceptsDefaults) {
  EXPECT_TRUE(core::CodesignOptions{}.validate().ok());
}

TEST(ValidateTest, ReportsEveryInvalidField) {
  core::CodesignOptions options;
  options.config_pool_size = 0;
  options.outer_particles = 0;
  options.outer_iterations = 0;
  options.unoptimized_attempts = -1;
  options.threads = -1;
  const Status status = options.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(status.stage, "options");
  for (const char* field :
       {"config_pool_size", "outer_particles", "outer_iterations",
        "unoptimized_attempts", "threads"}) {
    EXPECT_NE(status.message.find(field), std::string::npos)
        << "missing field: " << field;
  }
}

TEST(ValidateTest, RunRejectsInvalidOptionsBeforeAnyWork) {
  core::CodesignOptions options;
  options.outer_iterations = 0;
  const core::CodesignResult r = core::run_codesign(
      arch::make_ivd_chip(), sched::make_ivd_assay(), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.outcome, Outcome::kInvalidOptions);
  EXPECT_FALSE(r.chip.has_value());
  EXPECT_EQ(r.stats.evaluations, 0);
}

TEST(PsoStopTest, PreCancelledControlStopsImmediately) {
  RunControl control;
  control.request_cancel();
  pso::PsoOptions options;
  options.control = &control;
  int calls = 0;
  const pso::PsoResult result = pso::minimize(
      2,
      [&calls](std::span<const std::vector<double>> positions,
               std::span<double> values) {
        for (std::size_t i = 0; i < positions.size(); ++i) {
          ++calls;
          values[i] = 0.0;
        }
      },
      options);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(calls, 0);
}

TEST(SchedulerStopTest, ExpiredDeadlineMakesScheduleInfeasible) {
  RunControl control;
  control.set_timeout(-1.0);
  ASSERT_EQ(control.check(), StopReason::kDeadlineExceeded);
  sched::ScheduleOptions options;
  options.control = &control;
  const sched::Schedule schedule = sched::schedule_assay(
      arch::make_ivd_chip(), sched::make_ivd_assay(), options);
  EXPECT_FALSE(schedule.feasible);
}

core::CodesignOptions fast_codesign_options() {
  core::CodesignOptions options;
  options.outer_iterations = 3;
  options.config_pool_size = 2;
  options.unoptimized_attempts = 30;
  return options;
}

TEST(CodesignStopTest, ExpiredDeadlineReturnsQuicklyWithoutArtifacts) {
  RunControl control;
  control.set_timeout(-1.0);
  core::CodesignOptions options = fast_codesign_options();
  options.control = &control;
  const core::CodesignResult r = core::run_codesign(
      arch::make_ivd_chip(), sched::make_ivd_assay(), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.outcome, Outcome::kDeadlineExceeded);
  EXPECT_FALSE(r.chip.has_value());
  EXPECT_FALSE(r.schedule.has_value());
  EXPECT_TRUE(r.convergence.empty());
}

// Cancelling at the Nth progress report stops the run at a deterministic
// serial point, so the truncated result must be byte-for-byte reproducible
// — the deterministic analogue of a wall-clock deadline.
core::CodesignResult run_cancelled_after(int reports) {
  RunControl control;
  int delivered = 0;
  control.set_progress_callback([&](const RunProgress&) {
    if (++delivered >= reports) control.request_cancel();
  });
  core::CodesignOptions options = fast_codesign_options();
  options.outer_iterations = 50;
  options.control = &control;
  return core::run_codesign(arch::make_ivd_chip(), sched::make_ivd_assay(),
                            options);
}

TEST(CodesignStopTest, CancelMidRunKeepsBestSoFarPartialResult) {
  const core::CodesignResult r = run_cancelled_after(2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.outcome, Outcome::kCancelled);
  EXPECT_EQ(r.status.stage, "outer_pso");
  // The run got far enough to validate a sharing scheme, so the partial
  // result carries the full best-so-far artifact set.
  ASSERT_TRUE(r.chip.has_value());
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(r.schedule->feasible);
  EXPECT_TRUE(r.tests.coverage.complete());
  EXPECT_NEAR(r.schedule->makespan, r.exec_dft_optimized, 1e-9);
  // Truncated convergence: non-empty monotone prefix, shorter than the run.
  ASSERT_FALSE(r.convergence.empty());
  EXPECT_LT(r.convergence.size(), 50u);
  for (std::size_t i = 1; i < r.convergence.size(); ++i) {
    EXPECT_LE(r.convergence[i], r.convergence[i - 1] + 1e-12);
  }
}

TEST(CodesignStopTest, TruncatedRunIsReproducible) {
  const core::CodesignResult a = run_cancelled_after(2);
  const core::CodesignResult b = run_cancelled_after(2);
  EXPECT_EQ(a.status.outcome, b.status.outcome);
  EXPECT_EQ(a.chosen_config, b.chosen_config);
  EXPECT_EQ(a.sharing.partner, b.sharing.partner);
  EXPECT_EQ(a.convergence, b.convergence);
  EXPECT_EQ(a.exec_dft_optimized, b.exec_dft_optimized);
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
}

TEST(CodesignStopTest, CancelFromSecondThreadTerminatesRun) {
  RunControl control;
  core::CodesignOptions options = fast_codesign_options();
  options.outer_iterations = 100000;  // would run ~forever without the cancel
  options.control = &control;
  std::thread canceller([&control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    control.request_cancel();
  });
  const core::CodesignResult r = core::run_codesign(
      arch::make_ivd_chip(), sched::make_ivd_assay(), options);
  canceller.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.outcome, Outcome::kCancelled);
  // Best-so-far artifacts are valid whenever present.
  if (r.chip.has_value()) {
    ASSERT_TRUE(r.schedule.has_value());
    EXPECT_TRUE(r.schedule->feasible);
    EXPECT_TRUE(r.tests.coverage.complete());
  }
  for (std::size_t i = 1; i < r.convergence.size(); ++i) {
    EXPECT_LE(r.convergence[i], r.convergence[i - 1] + 1e-12);
  }
}

TEST(CodesignStopTest, TracingWithoutDeadlineDoesNotPerturbResults) {
  const arch::Biochip chip = arch::make_ivd_chip();
  const sched::Assay assay = sched::make_ivd_assay();

  const core::CodesignResult plain =
      core::run_codesign(chip, assay, fast_codesign_options());

  std::ostringstream out;
  JsonlTraceSink sink(out);
  Tracer tracer(&sink);
  RunControl control;  // no deadline, no cancel: only the tracer rides along
  control.set_tracer(&tracer);
  core::CodesignOptions traced_options = fast_codesign_options();
  traced_options.control = &control;
  const core::CodesignResult traced =
      core::run_codesign(chip, assay, traced_options);

  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(plain.sharing.partner, traced.sharing.partner);
  EXPECT_EQ(plain.convergence, traced.convergence);
  EXPECT_EQ(plain.exec_dft_optimized, traced.exec_dft_optimized);
  EXPECT_EQ(plain.stats.evaluations, traced.stats.evaluations);
  EXPECT_EQ(plain.stats.cache_hits, traced.stats.cache_hits);

  // The trace parses back and contains the pipeline's stage spans.
  std::istringstream in(out.str());
  const std::vector<TraceEvent> events = parse_trace_jsonl(in);
  ASSERT_FALSE(events.empty());
  int depth = 0;
  bool saw_codesign = false;
  bool saw_outer = false;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kSpanBegin) {
      if (event.name == "codesign") saw_codesign = true;
      if (event.name == "outer_iteration") saw_outer = true;
      ++depth;
    } else if (event.kind == TraceEvent::Kind::kSpanEnd) {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(saw_codesign);
  EXPECT_TRUE(saw_outer);
}

}  // namespace
}  // namespace mfd
