// JobSpec / JobResult model: validation reports every bad field at once,
// JSON round-trips are lossless, and serialized results carry only
// deterministic fields.
#include "svc/job.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/run_control.hpp"
#include "svc/daemon.hpp"
#include "svc/jobd.hpp"

namespace mfd::svc {
namespace {

JobSpec valid_testgen_spec() {
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.id = "t0";
  spec.chip = "figure4_chip";
  return spec;
}

TEST(JobSpecValidate, AcceptsAllKnownChipsAndAssays) {
  for (const char* chip :
       {"IVD_chip", "RA30_chip", "mRNA_chip", "figure4_chip"}) {
    JobSpec spec = valid_testgen_spec();
    spec.chip = chip;
    EXPECT_TRUE(spec.validate().ok()) << chip;
  }
  for (const char* assay : {"IVD", "PID", "CPA"}) {
    JobSpec spec;
    spec.kind = JobKind::kCodesign;
    spec.chip = "IVD_chip";
    spec.assay = assay;
    EXPECT_TRUE(spec.validate().ok()) << assay;
  }
}

TEST(JobSpecValidate, ListsEveryBadFieldInOneStatus) {
  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  // No chip at all, no assay, and three bad knobs: all five must show up.
  spec.outer_iterations = 0;
  spec.outer_particles = -1;
  spec.config_pool_size = 0;
  spec.deadline_s = -2.0;
  spec.threads = -1;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(status.stage, "job_spec");
  EXPECT_NE(status.message.find("'chip' or 'chip_text'"), std::string::npos);
  EXPECT_NE(status.message.find("assay"), std::string::npos);
  EXPECT_NE(status.message.find("outer_iterations"), std::string::npos);
  EXPECT_NE(status.message.find("outer_particles"), std::string::npos);
  EXPECT_NE(status.message.find("config_pool_size"), std::string::npos);
  EXPECT_NE(status.message.find("deadline_s"), std::string::npos);
  EXPECT_NE(status.message.find("threads"), std::string::npos);

  // Each thread starts an OS thread: a count past the bound is rejected
  // before any job runs.
  JobSpec greedy = valid_testgen_spec();
  greedy.threads = kMaxThreads + 1;
  const Status bounded = greedy.validate();
  ASSERT_FALSE(bounded.ok());
  EXPECT_NE(bounded.message.find("threads"), std::string::npos);
}

TEST(JobSpecValidate, BoundsTheDeadlineAtAYear) {
  // Past the bound, arming the deadline would overflow steady_clock; the
  // spec is refused instead.
  JobSpec spec = valid_testgen_spec();
  spec.deadline_s = kMaxDeadlineS;
  EXPECT_TRUE(spec.validate().ok());
  spec.deadline_s = 1e10;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_NE(status.message.find("deadline_s must be in [0, 31536000]"),
            std::string::npos)
      << status.message;

  // Through a batch, whose executor arms the deadline before the job
  // validates its spec: the job fails typed, as invalid, not as a deadline
  // that passed before it ran.
  std::istringstream in(spec.to_json().dump() + "\n");
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out);
  const Json line = Json::parse(out.str());
  EXPECT_EQ(line.at("status").at("outcome").as_string(), "invalid_options");
  EXPECT_EQ(line.at("status").at("stage").as_string(), "job_spec");
  EXPECT_EQ(report.metrics.jobs_failed, 1);

  // The same bound holds for a batch's and a daemon's default deadline.
  JobdOptions options;
  options.deadline_s = 1e10;
  EXPECT_NE(options.validate().message.find("deadline_s"), std::string::npos);
  DaemonOptions daemon;
  daemon.default_deadline_s = 1e10;
  EXPECT_NE(daemon.validate().message.find("default_deadline_s"),
            std::string::npos);
}

TEST(JobSpecValidate, BoundsTheSeedAtInt64Max) {
  // JSON integers are int64: a larger seed would validate, then fail to
  // parse back in every job of the batch.
  JobSpec spec = valid_testgen_spec();
  spec.seed = kMaxSeed;
  EXPECT_TRUE(spec.validate().ok());
  EXPECT_EQ(JobSpec::from_json(Json::parse(spec.to_json().dump())), spec);
  spec.seed = std::uint64_t{1} << 63;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("seed must be at most 9223372036854775807"),
            std::string::npos)
      << status.message;
}

TEST(JobSpecValidate, RejectsBothChipAndChipText) {
  JobSpec spec = valid_testgen_spec();
  spec.chip_text = "chip x\ngrid 3 3\n";
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("mutually exclusive"), std::string::npos);
}

TEST(JobSpecValidate, RejectsUnknownChipAndUniverse) {
  JobSpec spec = valid_testgen_spec();
  spec.chip = "warp_core";
  spec.universe = "gamma_ray";
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("warp_core"), std::string::npos);
  EXPECT_NE(status.message.find("universe"), std::string::npos);
}

TEST(JobSpecValidate, CodesignAcceptsInlineAssayText) {
  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  spec.chip = "IVD_chip";
  spec.assay_text = "assay a\nop mix 10 m\nop detect 5 d\ndep 0 1\n";
  EXPECT_TRUE(spec.validate().ok()) << spec.validate().to_string();
}

TEST(JobSpecValidate, RejectsBothAssayAndAssayText) {
  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  spec.chip = "IVD_chip";
  spec.assay = "IVD";
  spec.assay_text = "assay a\nop mix 10 m\n";
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("mutually exclusive"), std::string::npos)
      << status.message;
}

TEST(JobSpecValidate, NonCodesignIgnoresAssayFields) {
  JobSpec spec = valid_testgen_spec();
  spec.assay_text = "assay a\nop mix 10 m\n";
  EXPECT_TRUE(spec.validate().ok()) << spec.validate().to_string();
}

TEST(JobSpecJson, RoundTripsEveryField) {
  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  spec.id = "job-17";
  spec.chip = "mRNA_chip";
  spec.assay = "CPA";
  spec.assay_text = "";
  spec.universe = "stuck_at_leakage";
  spec.deadline_s = 12.5;
  spec.threads = 4;
  spec.seed = 987654321;
  spec.outer_iterations = 7;
  spec.outer_particles = 3;
  spec.config_pool_size = 2;
  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  // And through actual text, the way jobd sees it.
  const JobSpec reparsed =
      JobSpec::from_json(Json::parse(spec.to_json().dump()));
  EXPECT_EQ(reparsed, spec);
}

TEST(JobSpecJson, RoundTripsAssayText) {
  JobSpec spec;
  spec.kind = JobKind::kCodesign;
  spec.id = "inline";
  spec.chip_text = "chip x\ngrid 3 3\n";
  spec.assay_text = "assay a\nop mix 10 m\nop detect 5 d\ndep 0 1\n";
  const JobSpec back =
      JobSpec::from_json(Json::parse(spec.to_json().dump()));
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.assay_text, spec.assay_text);
}

TEST(JobSpecJson, AbsentFieldsKeepDefaults) {
  const JobSpec spec = JobSpec::from_json(
      Json::parse(R"({"kind":"coverage","chip":"IVD_chip"})"));
  EXPECT_EQ(spec.kind, JobKind::kCoverage);
  EXPECT_EQ(spec.chip, "IVD_chip");
  EXPECT_EQ(spec.universe, "stuck_at");
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.seed, 2024u);
  EXPECT_EQ(spec.outer_iterations, 100);
}

TEST(JobSpecJson, RejectsUnknownFieldsAndBadKinds) {
  EXPECT_THROW(JobSpec::from_json(Json::parse(
                   R"({"kind":"testgen","chip":"IVD_chip","frob":1})")),
               Error);
  EXPECT_THROW(
      JobSpec::from_json(Json::parse(R"({"kind":"brew_coffee"})")), Error);
  EXPECT_THROW(JobSpec::from_json(Json::parse(R"([1,2,3])")), Error);
  EXPECT_THROW(JobSpec::from_json(Json::parse(
                   R"({"kind":"testgen","seed":-5})")),
               Error);
}

TEST(JobSpecJson, RangeChecksIntegersIntoTheirFields) {
  // Each value once wrapped silently into an int (4294967297 -> 1 thread).
  for (const char* field : {"threads", "config_pool_size", "outer_iterations",
                            "outer_particles"}) {
    for (const char* value : {"4294967297", "-4294967295"}) {
      const std::string line = std::string(R"({"kind":"codesign",")") +
                               field + "\":" + value + "}";
      try {
        (void)JobSpec::from_json(Json::parse(line));
        ADD_FAILURE() << line << " parsed";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("JobSpec: '") +
                                             field + "' must be an integer"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW((void)JobSpec::from_json(Json::parse(R"({"threads":"4"})")),
               Error);
  EXPECT_THROW((void)JobSpec::from_json(Json::parse(R"({"id":7})")), Error);
}

TEST(JobResultJson, CarriesStatusAndOnlyDeterministicFields) {
  JobResult result;
  result.index = 3;
  result.id = "d1";
  result.kind = JobKind::kDiagnosis;
  result.status = Status::Fail(Outcome::kDeadlineExceeded, "coverage",
                               "stopped during coverage evaluation");
  result.queue_wait_seconds = 1.25;   // must NOT serialize
  result.run_seconds = 9.5;           // must NOT serialize
  const Json json = result.to_json();
  EXPECT_EQ(json.at("index").as_int(), 3);
  EXPECT_EQ(json.at("kind").as_string(), "diagnosis");
  EXPECT_EQ(json.at("status").at("outcome").as_string(), "deadline_exceeded");
  EXPECT_EQ(json.at("status").at("stage").as_string(), "coverage");
  const std::string text = json.dump();
  EXPECT_EQ(text.find("seconds"), std::string::npos) << text;
  EXPECT_EQ(text.find("wait"), std::string::npos) << text;
}

TEST(JobResultJson, CodesignResultsIncludeStatsWithoutWallClock) {
  JobResult result;
  result.kind = JobKind::kCodesign;
  result.status = Status::Ok();
  result.stats.evaluations = 10;
  result.stats.cache_hits = 4;
  const Json json = result.to_json();
  EXPECT_EQ(json.at("stats").at("evaluations").as_int(), 10);
  EXPECT_EQ(json.at("stats").at("cache_hits").as_int(), 4);
  EXPECT_EQ(json.at("stats").get("eval_seconds"), nullptr);
}

TEST(JobResultJson, RoundTripsThroughTheWorkerWire) {
  // from_json(to_json(r)) must reproduce every serialized field — this is
  // the supervisor's view of a worker's output line.
  JobResult result;
  result.index = 6;
  result.id = "cd-2";
  result.kind = JobKind::kCodesign;
  result.status = Status::Ok();
  result.chip_text = "chip x\ngrid 3 3\n";
  result.makespan = 42.5;
  result.exec_original = 50.0;
  result.exec_dft_unoptimized = 60.0;
  result.exec_dft_optimized = 55.0;
  result.dft_valves = 7;
  result.shared_valves = 3;
  result.stats.evaluations = 11;
  result.stats.cache_hits = 4;
  result.queue_wait_seconds = 1.5;  // service-side: must not travel

  const JobResult back =
      JobResult::from_json(Json::parse(result.to_json().dump()));
  EXPECT_EQ(back.to_json().dump(), result.to_json().dump());
  EXPECT_EQ(back.index, 6);
  EXPECT_EQ(back.kind, JobKind::kCodesign);
  EXPECT_TRUE(back.status.ok());
  EXPECT_EQ(back.chip_text, result.chip_text);
  EXPECT_DOUBLE_EQ(back.makespan, 42.5);
  EXPECT_EQ(back.dft_valves, 7);
  EXPECT_EQ(back.stats.evaluations, 11);
  // Wall-clock members never travel: they stay at their defaults.
  EXPECT_DOUBLE_EQ(back.queue_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(back.run_seconds, 0.0);

  // The diagnosis-only fields ride the diagnosis serialization.
  JobResult diagnosis;
  diagnosis.kind = JobKind::kDiagnosis;
  diagnosis.vectors = 12;
  diagnosis.total_faults = 40;
  diagnosis.distinct_signatures = 30;
  diagnosis.ambiguous_faults = 5;
  diagnosis.undetected_faults = 2;
  diagnosis.resolution = 0.75;
  const JobResult diag_back =
      JobResult::from_json(Json::parse(diagnosis.to_json().dump()));
  EXPECT_EQ(diag_back.to_json().dump(), diagnosis.to_json().dump());
  EXPECT_EQ(diag_back.distinct_signatures, 30);
  EXPECT_DOUBLE_EQ(diag_back.resolution, 0.75);
}

TEST(JobResultJson, RoundTripsFailureStatusesIncludingUnavailable) {
  for (const Outcome outcome :
       {Outcome::kDeadlineExceeded, Outcome::kInternalError,
        Outcome::kUnavailable}) {
    JobResult result;
    result.index = 1;
    result.kind = JobKind::kCoverage;
    result.status = Status::Fail(outcome, "worker", "killed by signal 6");
    const JobResult back =
        JobResult::from_json(Json::parse(result.to_json().dump()));
    EXPECT_EQ(back.status.outcome, outcome);
    EXPECT_EQ(back.status.stage, "worker");
    EXPECT_EQ(back.status.message, "killed by signal 6");
  }
}

TEST(JobResultJson, FromJsonRejectsGarbage) {
  EXPECT_THROW(JobResult::from_json(Json::parse(R"([1,2])")), Error);
  EXPECT_THROW(JobResult::from_json(Json::parse(
                   R"({"index":0,"id":"","kind":"brew_coffee",
                       "status":{"outcome":"ok"}})")),
               Error);
  EXPECT_THROW(JobResult::from_json(Json::parse(
                   R"({"index":0,"id":"","kind":"testgen",
                       "status":{"outcome":"half_done"}})")),
               Error);
}

TEST(JobResultJson, FromJsonRangeChecksIntegersAndIgnoresUnknownKeys) {
  const std::string line =
      R"({"index":4294967299,"kind":"testgen","status":{"outcome":"ok"}})";
  try {
    (void)JobResult::from_json(Json::parse(line));
    FAIL() << "index 4294967299 parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("JobResult: 'index'"),
              std::string::npos)
        << e.what();
  }
  // Lenient, unlike a spec: a key this version does not know is ignored.
  const JobResult result = JobResult::from_json(Json::parse(
      R"({"index":3,"kind":"testgen","status":{"outcome":"ok"},"new":1})"));
  EXPECT_EQ(result.index, 3);
}

TEST(JobKindNames, RoundTripThroughStrings) {
  for (const JobKind kind : {JobKind::kCodesign, JobKind::kTestgen,
                             JobKind::kCoverage, JobKind::kDiagnosis}) {
    JobKind parsed = JobKind::kCodesign;
    ASSERT_TRUE(job_kind_from_name(to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  JobKind unused = JobKind::kCodesign;
  EXPECT_FALSE(job_kind_from_name("brew_coffee", &unused));
  EXPECT_FALSE(job_kind_from_name("", &unused));
}

}  // namespace
}  // namespace mfd::svc
