// End-to-end JSONL job driver: byte-identical output across thread counts
// (the acceptance bar for the service layer), 1:1 line mapping even for
// malformed input, and well-formed per-job Status under deadlines.
#include "svc/jobd.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "svc/job.hpp"

namespace mfd::svc {
namespace {

std::string job_line(JobKind kind, const std::string& id,
                     const std::string& chip) {
  JobSpec spec;
  spec.kind = kind;
  spec.id = id;
  spec.chip = chip;
  return spec.to_json().dump();
}

/// The acceptance workload: 3 chips x 3 workload kinds.
std::string nine_job_file() {
  std::string text;
  for (const char* chip : {"figure4_chip", "IVD_chip", "RA30_chip"}) {
    for (const JobKind kind :
         {JobKind::kTestgen, JobKind::kCoverage, JobKind::kDiagnosis}) {
      text += job_line(kind, std::string(to_string(kind)) + ":" + chip, chip);
      text += "\n";
    }
  }
  return text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JobdTest, NineJobFileIsByteIdenticalAcrossThreadCounts) {
  const std::string input = nine_job_file();

  JobdOptions serial;
  serial.threads = 1;
  std::istringstream in1(input);
  std::ostringstream out1;
  const JobdReport report1 = run_jobd(in1, out1, serial);
  EXPECT_EQ(report1.metrics.jobs_total, 9);
  EXPECT_EQ(report1.metrics.jobs_ok, 9);

  JobdOptions wide;
  wide.threads = 8;
  std::istringstream in8(input);
  std::ostringstream out8;
  const JobdReport report8 = run_jobd(in8, out8, wide);
  EXPECT_EQ(report8.metrics.jobs_ok, 9);

  EXPECT_EQ(out1.str(), out8.str());

  // Every line is a complete JSON object answering its input line.
  const std::vector<std::string> lines = lines_of(out1.str());
  ASSERT_EQ(lines.size(), 9u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json json = Json::parse(lines[i]);
    EXPECT_EQ(json.at("index").as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(json.at("status").at("outcome").as_string(), "ok");
    EXPECT_GT(json.at("vectors").as_int(), 0);
  }
}

TEST(JobdTest, MalformedLinesKeepTheirSlotInTheOutput) {
  std::string input = job_line(JobKind::kTestgen, "ok0", "figure4_chip") + "\n";
  input += "{\"kind\": oops\n";  // malformed JSON
  input += "{\"kind\":\"testgen\",\"chip\":\"figure4_chip\",\"frob\":1}\n";
  input += job_line(JobKind::kDiagnosis, "ok3", "figure4_chip") + "\n";

  std::istringstream in(input);
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out);
  EXPECT_EQ(report.metrics.jobs_total, 4);
  EXPECT_EQ(report.metrics.parse_errors, 2);
  EXPECT_EQ(report.metrics.jobs_ok, 2);
  EXPECT_EQ(report.metrics.jobs_failed, 2);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  const Json bad_json = Json::parse(lines[1]);
  EXPECT_EQ(bad_json.at("status").at("outcome").as_string(), "invalid_options");
  EXPECT_EQ(bad_json.at("status").at("stage").as_string(), "parse");
  EXPECT_NE(bad_json.at("status").at("message").as_string().find("line 2"),
            std::string::npos);
  const Json unknown_field = Json::parse(lines[2]);
  EXPECT_EQ(unknown_field.at("status").at("stage").as_string(), "parse");
  EXPECT_NE(unknown_field.at("status").at("message").as_string().find("frob"),
            std::string::npos);
  EXPECT_EQ(Json::parse(lines[0]).at("status").at("outcome").as_string(), "ok");
  EXPECT_EQ(Json::parse(lines[3]).at("status").at("outcome").as_string(), "ok");
}

TEST(JobdTest, InputErrorsAreTypedAndNameNoSourceFile) {
  // Each line is the caller's error. Its answer names the field and never
  // a source file: a result's bytes must not depend on the checkout path
  // or on the line numbers of unrelated edits.
  const std::string input =
      "{\"kind\":\"testgen\",\"chip\":\"IVD_chip\",\"frob\":1}\n"
      "{\"kind\":\"testgen\",\"chip\":\"IVD_chip\","
      "\"threads\":4294967297}\n"
      "{\"kind\":\"codesign\",\"chip\":\"IVD_chip\",\"assay\":\"IVD\","
      "\"config_pool_size\":-4294967295}\n"
      "{\"kind\":\"testgen\","
      "\"chip_text\":\"chip x\\ngrid 3 3\\nchannel 0 0 2 2\\n\"}\n"
      "{\"kind\":\"codesign\",\"chip\":\"figure4_chip\","
      "\"assay_text\":\"garbage\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out);
  EXPECT_EQ(report.metrics.jobs_failed, 5);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"parse", "'frob'"},
      {"parse", "'threads'"},
      {"parse", "'config_pool_size'"},
      {"job_spec", "not 4-neighbours"},
      {"job_spec", "read_assay()"}};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json status = Json::parse(lines[i]).at("status");
    const std::string& message = status.at("message").as_string();
    EXPECT_EQ(status.at("outcome").as_string(), "invalid_options") << message;
    EXPECT_EQ(status.at("stage").as_string(), expected[i].first) << message;
    EXPECT_NE(message.find(expected[i].second), std::string::npos) << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
  }
}

TEST(JobdTest, BlankLinesAreSkippedWithoutOutput) {
  const std::string input =
      "\n" + job_line(JobKind::kTestgen, "only", "figure4_chip") + "\n   \n\n";
  std::istringstream in(input);
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out);
  EXPECT_EQ(report.metrics.jobs_total, 1);
  EXPECT_EQ(lines_of(out.str()).size(), 1u);
}

TEST(JobdTest, DeadlineMidRunLeavesWellFormedStatusAndNoPartialLines) {
  // A default deadline far below a real codesign run stops the expensive
  // jobs; every output line must still be complete, parseable JSON with a
  // typed Status, in input order.
  std::string input;
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.kind = JobKind::kCodesign;
    spec.id = "cd" + std::to_string(i);
    spec.chip = "IVD_chip";
    spec.assay = "IVD";
    input += spec.to_json().dump() + "\n";
  }
  JobSpec quick;
  quick.kind = JobKind::kTestgen;
  quick.id = "t";
  quick.chip = "figure4_chip";
  quick.deadline_s = 3600.0;  // own deadline: the tight default must not apply
  input += quick.to_json().dump() + "\n";

  JobdOptions options;
  options.threads = 2;
  options.deadline_s = 0.05;
  std::istringstream in(input);
  std::ostringstream out;
  const JobdReport report = run_jobd(in, out, options);
  EXPECT_EQ(report.metrics.jobs_total, 4);
  EXPECT_EQ(report.metrics.jobs_stopped, 3);

  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // the file ends on a complete record
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Json json = Json::parse(lines[i]);  // parse failure = partial line
    EXPECT_EQ(json.at("index").as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(json.at("status").at("outcome").as_string(),
              "deadline_exceeded");
    EXPECT_FALSE(json.at("status").at("stage").as_string().empty());
  }
  EXPECT_EQ(Json::parse(lines[3]).at("status").at("outcome").as_string(),
            "ok");
}

TEST(JobdTest, ResumedBatchReportsTheUninterruptedMetrics) {
  // A journaled batch resumed after its first three records reports the
  // metrics of an uninterrupted run: adopted results are tallied like the
  // ones that ran. (A result's JSON holds four of the EvalStats counters,
  // not outer/inner_evaluations, so an adopted result carries those four.)
  namespace fs = std::filesystem;
  JobSpec codesign;
  codesign.kind = JobKind::kCodesign;
  codesign.id = "cd";
  codesign.chip = "IVD_chip";
  codesign.assay = "IVD";
  codesign.outer_iterations = 1;
  codesign.outer_particles = 1;
  codesign.config_pool_size = 1;
  const std::string input =
      codesign.to_json().dump() + "\n" +
      job_line(JobKind::kTestgen, "t", "figure4_chip") + "\n" +
      "{\"kind\": oops\n" +
      job_line(JobKind::kCoverage, "c", "figure4_chip") + "\n";
  const auto run = [&input](const JobdOptions& options, std::string* bytes) {
    std::istringstream in(input);
    std::ostringstream out;
    const JobdReport report = run_jobd(in, out, options);
    *bytes = out.str();
    return report;
  };
  std::string oracle_bytes;
  const JobdReport oracle = run(JobdOptions{}, &oracle_bytes);

  const fs::path dir = fs::temp_directory_path() /
                       ("mfdft_jobd_resume_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  JobdOptions journaled;
  journaled.journal_dir = dir.string();
  std::string bytes;
  (void)run(journaled, &bytes);
  {
    // Keep the parse error (journaled first), the codesign and the testgen
    // record: the batch was interrupted before the coverage job.
    std::ifstream in(dir / "results.journal", std::ios::binary);
    const std::string journal((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::size_t end = 0;
    for (int records = 0; records < 3; ++records) {
      end = journal.find('\n', end) + 1;
    }
    std::ofstream out(dir / "results.journal",
                      std::ios::binary | std::ios::trunc);
    out << journal.substr(0, end);
  }
  journaled.resume = true;
  const JobdReport resumed = run(journaled, &bytes);
  EXPECT_EQ(bytes, oracle_bytes);

  const ServiceMetrics& want = oracle.metrics;
  const ServiceMetrics& got = resumed.metrics;
  EXPECT_EQ(want.jobs_resumed, 0);
  EXPECT_EQ(got.jobs_resumed, 3);
  EXPECT_EQ(got.jobs_total, 4);
  EXPECT_EQ(got.jobs_total, want.jobs_total);
  EXPECT_EQ(got.jobs_ok, want.jobs_ok);
  EXPECT_EQ(got.jobs_stopped, want.jobs_stopped);
  EXPECT_EQ(got.jobs_failed, want.jobs_failed);
  EXPECT_EQ(got.parse_errors, want.parse_errors);
  EXPECT_GT(want.stats.evaluations, 0);
  EXPECT_EQ(got.stats.evaluations, want.stats.evaluations);
  EXPECT_EQ(got.stats.cache_hits, want.stats.cache_hits);
  EXPECT_EQ(got.stats.scheduler_runs, want.stats.scheduler_runs);
  EXPECT_EQ(got.stats.testgen_runs, want.stats.testgen_runs);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace mfd::svc
