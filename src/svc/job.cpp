#include "svc/job.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/run_control.hpp"

namespace mfd::svc {

namespace {

const char* const kKnownChips[] = {"IVD_chip", "RA30_chip", "mRNA_chip",
                                   "figure4_chip"};
const char* const kKnownAssays[] = {"IVD", "PID", "CPA"};

bool known_chip(const std::string& name) {
  for (const char* chip : kKnownChips) {
    if (name == chip) return true;
  }
  return false;
}

bool known_assay(const std::string& name) {
  for (const char* assay : kKnownAssays) {
    if (name == assay) return true;
  }
  return false;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kCodesign:
      return "codesign";
    case JobKind::kTestgen:
      return "testgen";
    case JobKind::kCoverage:
      return "coverage";
    case JobKind::kDiagnosis:
      return "diagnosis";
  }
  return "unknown";
}

bool job_kind_from_name(const std::string& name, JobKind* kind) {
  for (const JobKind candidate : {JobKind::kCodesign, JobKind::kTestgen,
                                  JobKind::kCoverage, JobKind::kDiagnosis}) {
    if (name == to_string(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

const char* to_string(JobClass job_class) {
  switch (job_class) {
    case JobClass::kInteractive:
      return "interactive";
    case JobClass::kBulk:
      return "bulk";
  }
  return "unknown";
}

bool job_class_from_name(const std::string& name, JobClass* job_class) {
  for (const JobClass candidate :
       {JobClass::kInteractive, JobClass::kBulk}) {
    if (name == to_string(candidate)) {
      *job_class = candidate;
      return true;
    }
  }
  return false;
}

JobClass job_class_of(const JobSpec& spec) {
  JobClass job_class;
  if (job_class_from_name(spec.priority, &job_class)) return job_class;
  return spec.kind == JobKind::kCodesign ? JobClass::kBulk
                                         : JobClass::kInteractive;
}

Status JobSpec::validate() const {
  std::string problems;
  const auto flag = [&problems](bool bad, const std::string& what) {
    if (!bad) return;
    if (!problems.empty()) problems += "; ";
    problems += what;
  };
  flag(chip.empty() && chip_text.empty(),
       "one of 'chip' or 'chip_text' is required");
  flag(!chip.empty() && !chip_text.empty(),
       "'chip' and 'chip_text' are mutually exclusive");
  flag(!chip.empty() && !known_chip(chip),
       "unknown chip '" + chip +
           "' (want IVD_chip, RA30_chip, mRNA_chip or figure4_chip)");
  if (kind == JobKind::kCodesign) {
    flag(assay.empty() && assay_text.empty(),
         "codesign jobs require one of 'assay' or 'assay_text'");
    flag(!assay.empty() && !assay_text.empty(),
         "'assay' and 'assay_text' are mutually exclusive");
    flag(!assay.empty() && !known_assay(assay),
         "unknown assay '" + assay + "' (want IVD, PID or CPA)");
    flag(outer_iterations < 1, "outer_iterations must be >= 1");
    flag(outer_particles < 1, "outer_particles must be >= 1");
    flag(config_pool_size < 1, "config_pool_size must be >= 1");
  }
  flag(universe != "stuck_at" && universe != "stuck_at_leakage",
       "universe must be 'stuck_at' or 'stuck_at_leakage'");
  flag(!valid_deadline(deadline_s),
       std::string("deadline_s") + kDeadlineRange);
  flag(threads < 0 || threads > kMaxThreads,
       "threads must be in [0, " + std::to_string(kMaxThreads) + "]");
  flag(seed > kMaxSeed, "seed must be at most " + std::to_string(kMaxSeed));
  if (!priority.empty()) {
    JobClass parsed;
    flag(!job_class_from_name(priority, &parsed),
         "unknown priority '" + priority + "' (want interactive or bulk)");
  }
  if (problems.empty()) return Status::Ok();
  return Status::Fail(Outcome::kInvalidOptions, "job_spec",
                      std::move(problems));
}

Json JobSpec::to_json() const {
  Json out = Json::object();
  out.set("kind", Json(std::string(to_string(kind))));
  out.set("id", Json(id));
  out.set("chip", Json(chip));
  out.set("chip_text", Json(chip_text));
  out.set("assay", Json(assay));
  out.set("assay_text", Json(assay_text));
  out.set("universe", Json(universe));
  out.set("deadline_s", Json(deadline_s));
  out.set("threads", Json(std::int64_t{threads}));
  out.set("seed", Json(static_cast<std::int64_t>(seed)));
  out.set("outer_iterations", Json(std::int64_t{outer_iterations}));
  out.set("outer_particles", Json(std::int64_t{outer_particles}));
  out.set("config_pool_size", Json(std::int64_t{config_pool_size}));
  out.set("priority", Json(priority));
  return out;
}

JobSpec JobSpec::from_json(const Json& json) {
  ObjectReader reader(json, "JobSpec");
  JobSpec spec;
  std::string kind_word = "testgen";
  reader.read("kind", kind_word);
  if (!job_kind_from_name(kind_word, &spec.kind)) {
    reader.fail("kind", "is not a job kind: '" + kind_word + "'");
  }
  reader.read("id", spec.id);
  reader.read("chip", spec.chip);
  reader.read("chip_text", spec.chip_text);
  reader.read("assay", spec.assay);
  reader.read("assay_text", spec.assay_text);
  reader.read("universe", spec.universe);
  reader.read("deadline_s", spec.deadline_s);
  reader.read("threads", spec.threads);
  reader.read("seed", spec.seed);
  reader.read("outer_iterations", spec.outer_iterations);
  reader.read("outer_particles", spec.outer_particles);
  reader.read("config_pool_size", spec.config_pool_size);
  reader.read("priority", spec.priority);
  reader.reject_unread();
  return spec;
}

JobResult JobResult::from_json(const Json& json) {
  // Lenient: keys this version does not know are ignored.
  ObjectReader reader(json, "JobResult");
  JobResult result;
  reader.read("index", result.index);
  reader.read("id", result.id);
  std::string kind_word;
  reader.read("kind", kind_word);
  if (!job_kind_from_name(kind_word, &result.kind)) {
    reader.fail("kind", "is not a job kind: '" + kind_word + "'");
  }

  ObjectReader status(reader.at("status"), "JobResult status");
  std::string outcome_word;
  status.read("outcome", outcome_word);
  const std::optional<Outcome> outcome = outcome_from_name(outcome_word);
  if (!outcome.has_value()) {
    status.fail("outcome", "is not an outcome: '" + outcome_word + "'");
  }
  result.status.outcome = *outcome;
  status.read("stage", result.status.stage);
  status.read("message", result.status.message);

  reader.read("chip_text", result.chip_text);
  reader.read("makespan", result.makespan);
  reader.read("exec_original", result.exec_original);
  reader.read("exec_dft_unoptimized", result.exec_dft_unoptimized);
  reader.read("exec_dft_optimized", result.exec_dft_optimized);
  reader.read("dft_valves", result.dft_valves);
  reader.read("shared_valves", result.shared_valves);
  reader.read("vectors", result.vectors);
  reader.read("path_vectors", result.path_vectors);
  reader.read("cut_vectors", result.cut_vectors);
  reader.read("total_faults", result.total_faults);
  reader.read("detected_faults", result.detected_faults);
  reader.read("distinct_signatures", result.distinct_signatures);
  reader.read("ambiguous_faults", result.ambiguous_faults);
  reader.read("undetected_faults", result.undetected_faults);
  reader.read("resolution", result.resolution);
  if (const Json* stats_json = reader.get("stats")) {
    ObjectReader stats(*stats_json, "JobResult stats");
    stats.read("evaluations", result.stats.evaluations);
    stats.read("cache_hits", result.stats.cache_hits);
    stats.read("scheduler_runs", result.stats.scheduler_runs);
    stats.read("testgen_runs", result.stats.testgen_runs);
  }
  return result;
}

Json JobResult::to_json() const {
  Json out = Json::object();
  out.set("index", Json(std::int64_t{index}));
  out.set("id", Json(id));
  out.set("kind", Json(std::string(to_string(kind))));

  Json status_json = Json::object();
  status_json.set("outcome", Json(std::string(mfd::to_string(status.outcome))));
  status_json.set("stage", Json(status.stage));
  status_json.set("message", Json(status.message));
  out.set("status", std::move(status_json));

  switch (kind) {
    case JobKind::kCodesign: {
      out.set("dft_valves", Json(std::int64_t{dft_valves}));
      out.set("shared_valves", Json(std::int64_t{shared_valves}));
      out.set("makespan", Json(makespan));
      out.set("exec_original", Json(exec_original));
      out.set("exec_dft_unoptimized", Json(exec_dft_unoptimized));
      out.set("exec_dft_optimized", Json(exec_dft_optimized));
      out.set("chip_text", Json(chip_text));
      Json stats_json = Json::object();
      stats_json.set("evaluations", Json(stats.evaluations));
      stats_json.set("cache_hits", Json(stats.cache_hits));
      stats_json.set("scheduler_runs", Json(stats.scheduler_runs));
      stats_json.set("testgen_runs", Json(stats.testgen_runs));
      out.set("stats", std::move(stats_json));
      break;
    }
    case JobKind::kTestgen:
      out.set("vectors", Json(std::int64_t{vectors}));
      out.set("path_vectors", Json(std::int64_t{path_vectors}));
      out.set("cut_vectors", Json(std::int64_t{cut_vectors}));
      out.set("total_faults", Json(std::int64_t{total_faults}));
      out.set("detected_faults", Json(std::int64_t{detected_faults}));
      break;
    case JobKind::kCoverage:
      out.set("vectors", Json(std::int64_t{vectors}));
      out.set("total_faults", Json(std::int64_t{total_faults}));
      out.set("detected_faults", Json(std::int64_t{detected_faults}));
      break;
    case JobKind::kDiagnosis:
      out.set("vectors", Json(std::int64_t{vectors}));
      out.set("total_faults", Json(std::int64_t{total_faults}));
      out.set("distinct_signatures", Json(std::int64_t{distinct_signatures}));
      out.set("ambiguous_faults", Json(std::int64_t{ambiguous_faults}));
      out.set("undetected_faults", Json(std::int64_t{undetected_faults}));
      out.set("resolution", Json(resolution));
      break;
  }
  return out;
}

bool blank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

void ServiceMetrics::tally(const JobResult& result) {
  ++jobs_total;
  switch (result.status.outcome) {
    case Outcome::kOk:
      ++jobs_ok;
      break;
    case Outcome::kDeadlineExceeded:
    case Outcome::kCancelled:
      ++jobs_stopped;
      break;
    default:
      ++jobs_failed;
      break;
  }
  if (result.status.stage == "parse") ++parse_errors;
  queue_wait_seconds_total += result.queue_wait_seconds;
  if (result.queue_wait_seconds > queue_wait_seconds_max) {
    queue_wait_seconds_max = result.queue_wait_seconds;
  }
  stats += result.stats;
}

std::string ServiceMetrics::summary() const {
  std::string text = std::to_string(jobs_total) + " jobs (" +
                     std::to_string(jobs_ok) + " ok, " +
                     std::to_string(jobs_stopped) + " stopped, " +
                     std::to_string(jobs_failed) + " failed)";
  const auto add = [&text](std::int64_t count, const char* what) {
    if (count != 0) text += ", " + std::to_string(count) + " " + what;
  };
  add(parse_errors, "parse errors");
  add(jobs_resumed, "resumed");
  add(jobs_shed, "shed");
  add(jobs_remote, "remote");
  add(jobs_retried, "retried");
  add(jobs_quarantined, "quarantined");
  add(workers_lost, "workers lost");
  add(clients_served, "clients served");
  add(workers_joined, "remote workers joined");
  add(cache_shared_hits, "cache hits");
  add(cache_entries, "cache entries");
  add(cache_disk_loaded, "cache entries warm from disk");
  add(suites_reused, "suites reused");
  char wall[64];
  std::snprintf(wall, sizeof wall, " in %.2fs wall, max queue wait %.3fs",
                wall_seconds, queue_wait_seconds_max);
  return text + wall;
}

JobResult parse_error_result(int index, int line_number,
                             const std::string& line,
                             const std::string& what) {
  JobResult result;
  result.index = index;
  try {
    const Json json = Json::parse(line);
    const Json* kind = json.is_object() ? json.get("kind") : nullptr;
    if (kind != nullptr && kind->is_string() &&
        job_kind_from_name(kind->as_string(), &result.kind)) {
      const Json* id = json.get("id");
      if (id != nullptr && id->is_string()) result.id = id->as_string();
    }
  } catch (const std::exception&) {
    // Not JSON: nothing to echo.
  }
  result.status =
      Status::Fail(Outcome::kInvalidOptions, "parse",
                   "line " + std::to_string(line_number) + ": " + what);
  return result;
}

}  // namespace mfd::svc
