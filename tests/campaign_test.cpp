// Tests for campaign expansion and execution (src/workload/campaign.*):
// tiers lower into ordinary svc::JobSpec batches (ids, inline chip/assay
// text, member-major order), specs round-trip through JSON with every
// violation reported in one Status, and a campaign run through the real
// svc::run_jobd() path produces byte-identical results.jsonl regardless of
// the thread count — the property BENCH_campaign.json runs stand on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/run_control.hpp"
#include "svc/daemon.hpp"
#include "workload/campaign.hpp"

namespace mfd::workload {
namespace {

CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.name = "unit";

  CampaignTier fpva;
  fpva.name = "fpva";
  fpva.family.name = "grid";
  fpva.family.kind = "fpva";
  fpva.family.count = 2;
  fpva.family.seed = 13;
  fpva.family.rows_min = 4;
  fpva.family.rows_max = 5;
  fpva.family.cols_min = 4;
  fpva.family.cols_max = 5;
  fpva.family.ports = 3;
  fpva.family.mixers = 1;
  fpva.family.detectors = 1;
  fpva.kinds = {"testgen", "coverage"};
  fpva.universe = "stuck_at_leakage";
  spec.tiers.push_back(fpva);

  CampaignTier codesign;
  codesign.name = "codesign";
  codesign.family.name = "synth";
  codesign.family.kind = "synthetic";
  codesign.family.count = 1;
  codesign.family.seed = 5;
  codesign.family.rows_min = codesign.family.rows_max = 4;
  codesign.family.cols_min = codesign.family.cols_max = 5;
  codesign.family.ports = 3;
  codesign.family.mixers = 2;
  codesign.family.detectors = 1;
  codesign.family.assay_ops_min = 5;
  codesign.family.assay_ops_max = 6;
  codesign.kinds = {"codesign"};
  codesign.outer_iterations = 1;
  codesign.outer_particles = 1;
  codesign.config_pool_size = 1;
  spec.tiers.push_back(codesign);
  return spec;
}

TEST(CampaignSpecTest, JsonRoundTripsEveryField) {
  const CampaignSpec spec = small_campaign();
  EXPECT_EQ(CampaignSpec::from_json(spec.to_json()), spec);
}

TEST(CampaignSpecTest, UnknownFieldsThrow) {
  Json json = small_campaign().to_json();
  json.set("surprise", Json(std::int64_t{1}));
  EXPECT_THROW(CampaignSpec::from_json(json), Error);
}

TEST(CampaignSpecTest, RangeChecksIntegersIntoTheirFields) {
  // A family count past INT_MAX once wrapped (4294967298 -> 2 members).
  Json json = Json::parse(R"({"tiers":[{"family":{"count":4294967298}}]})");
  try {
    (void)CampaignSpec::from_json(json);
    FAIL() << "count 4294967298 parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FamilySpec: 'count'"),
              std::string::npos)
        << e.what();
  }
  json = Json::parse(R"({"tiers":[{"threads":-4294967295}]})");
  EXPECT_THROW((void)CampaignSpec::from_json(json), Error);
  json = Json::parse(R"({"tiers":[{"kinds":"testgen"}]})");
  EXPECT_THROW((void)CampaignSpec::from_json(json), Error);
}

TEST(CampaignSpecTest, BoundsWhatEveryJobCarriesAsItsJobSpecDoes) {
  // Every job carries the tier's seed and threads. Past INT64_MAX the seed
  // could not travel as a JSON integer, and past kMaxThreads each job's
  // spec is invalid: either way the campaign would validate, then fail
  // every job.
  CampaignSpec spec = small_campaign();
  spec.tiers[0].job_seed = svc::kMaxSeed;
  spec.tiers[0].threads = svc::kMaxThreads;
  EXPECT_TRUE(spec.validate().ok()) << spec.validate().to_string();
  EXPECT_EQ(CampaignSpec::from_json(Json::parse(spec.to_json().dump())), spec);
  spec.tiers[0].job_seed = std::uint64_t{1} << 63;
  spec.tiers[0].threads = svc::kMaxThreads + 1;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("job_seed must be at most"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("threads must be in [0, 256]"),
            std::string::npos)
      << status.message;
}

TEST(CampaignSpecTest, ListsEveryProblemWithTierPrefix) {
  CampaignSpec spec;
  spec.name = "bad campaign";  // whitespace
  CampaignTier tier;
  tier.name = "t0";
  tier.kinds = {"testgen", "teleport"};
  tier.universe = "cosmic_rays";
  tier.outer_iterations = 0;
  tier.family.count = 0;
  spec.tiers.push_back(tier);
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(status.stage, "campaign_spec");
  EXPECT_NE(status.message.find("whitespace"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("tier 0 ('t0')"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("teleport"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("universe"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("outer_iterations"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("count"), std::string::npos)
      << status.message;
}

TEST(CampaignSpecTest, EmptyCampaignIsInvalid) {
  CampaignSpec spec;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("at least one tier"), std::string::npos)
      << status.message;
}

TEST(CampaignExpandTest, LowersTiersIntoJobSpecBatches) {
  const CampaignSpec spec = small_campaign();
  std::vector<CampaignJob> jobs;
  ASSERT_TRUE(expand_campaign(spec, &jobs).ok());
  // 2 members x 2 kinds + 1 member x 1 kind.
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].spec.id, "fpva/grid_0_4x4/testgen");
  EXPECT_EQ(jobs[1].spec.id, "fpva/grid_0_4x4/coverage");
  EXPECT_EQ(jobs[2].spec.id, "fpva/grid_1_5x5/testgen");
  EXPECT_EQ(jobs[3].spec.id, "fpva/grid_1_5x5/coverage");
  EXPECT_EQ(jobs[4].spec.id, "codesign/synth_0_5x4/codesign");

  // A member's kinds share the exact chip bytes; assay text travels only
  // with codesign jobs; every job validates as a plain JobSpec.
  EXPECT_EQ(jobs[0].spec.chip_text, jobs[1].spec.chip_text);
  EXPECT_NE(jobs[0].spec.chip_text, jobs[2].spec.chip_text);
  EXPECT_TRUE(jobs[0].spec.assay_text.empty());
  EXPECT_FALSE(jobs[4].spec.assay_text.empty());
  for (const CampaignJob& job : jobs) {
    EXPECT_TRUE(job.spec.validate().ok()) << job.spec.id;
    EXPECT_GT(job.valves, 0);
    EXPECT_EQ(job.spec.deadline_s, 0.0) << job.spec.id;
  }
  EXPECT_EQ(jobs[0].spec.universe, "stuck_at_leakage");
}

TEST(CampaignExpandTest, BadSpecReturnsStatusInsteadOfThrowing) {
  CampaignSpec spec;
  std::vector<CampaignJob> jobs;
  const Status status = expand_campaign(spec, &jobs);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
}

TEST(CampaignRunTest, ResultsAreByteIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = small_campaign();

  CampaignRunOptions serial;
  serial.jobd.threads = 1;
  CampaignOutcome first;
  ASSERT_TRUE(run_campaign(spec, serial, &first).ok());

  CampaignRunOptions threaded;
  threaded.jobd.threads = 2;
  CampaignOutcome second;
  ASSERT_TRUE(run_campaign(spec, threaded, &second).ok());

  EXPECT_FALSE(first.results_jsonl.empty());
  EXPECT_EQ(first.results_jsonl, second.results_jsonl);
}

TEST(CampaignRunTest, ReportAggregatesTheBatch) {
  const CampaignSpec spec = small_campaign();
  CampaignRunOptions options;
  options.jobd.threads = 1;
  CampaignOutcome outcome;
  ASSERT_TRUE(run_campaign(spec, options, &outcome).ok());

  const CampaignReport& report = outcome.report;
  EXPECT_EQ(report.campaign, "unit");
  EXPECT_EQ(report.jobs, 5);
  EXPECT_EQ(report.metrics.jobs_ok + report.metrics.jobs_failed, 5);
  EXPECT_EQ(report.chips, 3);
  EXPECT_GT(report.valves_min, 0);
  EXPECT_GE(report.valves_max, report.valves_min);
  ASSERT_EQ(report.rows.size(), 5u);
  EXPECT_EQ(report.rows[0].kind, "testgen");
  EXPECT_EQ(report.rows[0].outcome, "ok");
  EXPECT_GT(report.rows[0].vectors, 0);
  EXPECT_GT(report.rows[1].total_faults, 0);
  // On one thread each FPVA member's coverage job takes the suite its
  // testgen job generated.
  EXPECT_EQ(report.metrics.suites_reused, 2);

  // The JSON payload carries the aggregate and one row per job.
  const Json json = report.to_json();
  EXPECT_EQ(json.at("campaign").as_string(), "unit");
  EXPECT_EQ(json.at("jobs").as_int(), 5);
  EXPECT_EQ(json.at("rows").as_array().size(), 5u);

  // The recovery counters are part of the schema even for a clean run.
  EXPECT_EQ(json.at("jobs_retried").as_int(), 0);
  EXPECT_EQ(json.at("jobs_quarantined").as_int(), 0);
  EXPECT_EQ(json.at("workers_lost").as_int(), 0);
  EXPECT_EQ(json.at("jobs_resumed").as_int(), 0);
  EXPECT_EQ(json.at("jobs_stopped").as_int(), 0);
  EXPECT_EQ(json.at("suites_reused").as_int(), 2);
  EXPECT_FALSE(json.at("interrupted").as_bool());
}

TEST(CampaignRunTest, JournaledCampaignResumesByteIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("mfdft_campaign_journal_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const CampaignSpec spec = small_campaign();

  // Uninterrupted oracle.
  CampaignRunOptions plain;
  plain.jobd.threads = 1;
  CampaignOutcome oracle;
  ASSERT_TRUE(run_campaign(spec, plain, &oracle).ok());

  // Journaled first run: every deterministic result durable on disk.
  CampaignRunOptions journaled = plain;
  journaled.jobd.journal_dir = dir.string();
  CampaignOutcome first;
  ASSERT_TRUE(run_campaign(spec, journaled, &first).ok());
  EXPECT_EQ(first.results_jsonl, oracle.results_jsonl);
  EXPECT_EQ(first.jobd.journal_appended, 5);

  // Resumed run over the complete journal: every job adopted, nothing
  // re-executed, bytes identical.
  CampaignRunOptions resumed = journaled;
  resumed.jobd.resume = true;
  CampaignOutcome second;
  ASSERT_TRUE(run_campaign(spec, resumed, &second).ok());
  EXPECT_EQ(second.results_jsonl, oracle.results_jsonl);
  EXPECT_EQ(second.jobd.metrics.jobs_resumed, 5);
  EXPECT_EQ(second.jobd.journal_appended, 0);
  EXPECT_EQ(second.report.metrics.jobs_resumed, 5);

  // Truncate the journal to its first 2 records — a run interrupted after
  // two jobs — and resume: exactly the 3 missing jobs are recomputed.
  {
    std::ifstream in(dir / "results.journal", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::size_t end = 0;
    for (int records = 0; records < 2; ++records) {
      end = bytes.find('\n', end) + 1;
    }
    std::ofstream out(dir / "results.journal",
                      std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, end);
  }
  CampaignOutcome third;
  ASSERT_TRUE(run_campaign(spec, resumed, &third).ok());
  EXPECT_EQ(third.results_jsonl, oracle.results_jsonl);
  EXPECT_EQ(third.jobd.metrics.jobs_resumed, 2);
  EXPECT_EQ(third.jobd.journal_appended, 3);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CampaignRunTest, ThroughDaemonResumesByteIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("mfdft_campaign_daemon_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const CampaignSpec spec = small_campaign();
  CampaignRunOptions local;
  local.jobd.threads = 1;
  CampaignOutcome oracle;
  ASSERT_TRUE(run_campaign(spec, local, &oracle).ok());

  svc::DaemonOptions daemon_options;
  daemon_options.executors = 2;
  svc::JobDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.start().ok());

  // The connection drops right after the 4th result arrived and was
  // journaled: a typed failure, and nothing emitted.
  CampaignRunOptions remote;
  remote.jobd.connect = svc::ClientOptions{};
  remote.jobd.connect->port = daemon.port();
  remote.jobd.journal_dir = dir.string();
  remote.jobd.fault_inject = "conn_drop@job=3";
  CampaignOutcome dropped;
  const Status status = run_campaign(spec, remote, &dropped);
  EXPECT_EQ(status.outcome, Outcome::kInternalError);
  EXPECT_EQ(status.stage, "client");
  EXPECT_EQ(dropped.jobd.journal_appended, 4);
  EXPECT_TRUE(dropped.results_jsonl.empty());

  // Resumed: the 4 journaled results are adopted and the daemon runs the
  // fifth job, byte-identical to the in-process run.
  remote.jobd.fault_inject.clear();
  remote.jobd.resume = true;
  CampaignOutcome resumed;
  ASSERT_TRUE(run_campaign(spec, remote, &resumed).ok());
  EXPECT_EQ(resumed.results_jsonl, oracle.results_jsonl);
  EXPECT_EQ(resumed.report.metrics.jobs_resumed, 4);
  EXPECT_EQ(resumed.jobd.journal_appended, 1);
  daemon.stop();

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CampaignRunTest, StoppedControlDrainsTheCampaignAsInterrupted) {
  const CampaignSpec spec = small_campaign();
  RunControl control;
  control.request_cancel();  // stopped before the batch starts

  CampaignRunOptions options;
  options.jobd.threads = 1;
  options.jobd.control = &control;
  CampaignOutcome outcome;
  ASSERT_TRUE(run_campaign(spec, options, &outcome).ok());

  // Every job answered (as cancelled), nothing hung, and the report is
  // typed as interrupted with the stopped jobs broken out.
  EXPECT_EQ(outcome.report.jobs, 5);
  EXPECT_EQ(outcome.report.metrics.jobs_ok, 0);
  EXPECT_EQ(outcome.report.metrics.jobs_stopped, 5);
  EXPECT_TRUE(outcome.report.interrupted);
  EXPECT_TRUE(outcome.jobd.interrupted);
}

}  // namespace
}  // namespace mfd::workload
