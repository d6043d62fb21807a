#include "workload/campaign.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "arch/serialize.hpp"
#include "common/error.hpp"
#include "sched/serialize.hpp"

namespace mfd::workload {

namespace {

bool has_whitespace(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return false;
}

bool known_kind(const std::string& kind) {
  svc::JobKind parsed;
  return svc::job_kind_from_name(kind, &parsed);
}

/// Appends the tier's problems to `problems` ("" = tier is valid).
void validate_tier(const CampaignTier& tier, int index,
                   std::string& problems) {
  std::string local;
  const auto flag = [&local](bool bad, const std::string& what) {
    if (!bad) return;
    if (!local.empty()) local += "; ";
    local += what;
  };
  flag(tier.name.empty(), "name must not be empty");
  flag(has_whitespace(tier.name), "name must not contain whitespace");
  flag(tier.kinds.empty(), "kinds must not be empty");
  for (const std::string& kind : tier.kinds) {
    flag(!known_kind(kind),
         "unknown kind '" + kind +
             "' (want codesign, testgen, coverage or diagnosis)");
  }
  flag(tier.universe != "stuck_at" && tier.universe != "stuck_at_leakage",
       "universe must be 'stuck_at' or 'stuck_at_leakage'");
  flag(tier.threads < 0 || tier.threads > svc::kMaxThreads,
       "threads must be in [0, " + std::to_string(svc::kMaxThreads) + "]");
  flag(tier.job_seed > svc::kMaxSeed,
       "job_seed must be at most " + std::to_string(svc::kMaxSeed));
  flag(tier.outer_iterations < 1, "outer_iterations must be >= 1");
  flag(tier.outer_particles < 1, "outer_particles must be >= 1");
  flag(tier.config_pool_size < 1, "config_pool_size must be >= 1");
  const Status family_status = tier.family.validate();
  if (!family_status.ok()) flag(true, family_status.message);
  if (local.empty()) return;
  if (!problems.empty()) problems += "; ";
  problems += "tier " + std::to_string(index) + " ('" + tier.name +
              "'): " + local;
}

}  // namespace

Json CampaignTier::to_json() const {
  Json out = Json::object();
  out.set("name", Json(name));
  out.set("family", family.to_json());
  Json kinds_json = Json::array();
  for (const std::string& kind : kinds) kinds_json.push_back(Json(kind));
  out.set("kinds", std::move(kinds_json));
  out.set("universe", Json(universe));
  out.set("job_seed", Json(static_cast<std::int64_t>(job_seed)));
  out.set("threads", Json(std::int64_t{threads}));
  out.set("outer_iterations", Json(std::int64_t{outer_iterations}));
  out.set("outer_particles", Json(std::int64_t{outer_particles}));
  out.set("config_pool_size", Json(std::int64_t{config_pool_size}));
  return out;
}

CampaignTier CampaignTier::from_json(const Json& json) {
  ObjectReader reader(json, "CampaignTier");
  CampaignTier tier;
  reader.read("name", tier.name);
  if (const Json* family = reader.get("family")) {
    tier.family = FamilySpec::from_json(*family);
  }
  if (const Json* kinds = reader.get("kinds")) {
    if (!kinds->is_array()) reader.fail("kinds", "must be an array");
    tier.kinds.clear();
    for (const Json& kind : kinds->as_array()) {
      if (!kind.is_string()) reader.fail("kinds", "must hold strings");
      tier.kinds.push_back(kind.as_string());
    }
  }
  reader.read("universe", tier.universe);
  reader.read("job_seed", tier.job_seed);
  reader.read("threads", tier.threads);
  reader.read("outer_iterations", tier.outer_iterations);
  reader.read("outer_particles", tier.outer_particles);
  reader.read("config_pool_size", tier.config_pool_size);
  reader.reject_unread();
  return tier;
}

Status CampaignSpec::validate() const {
  std::string problems;
  if (name.empty()) problems = "name must not be empty";
  if (has_whitespace(name)) {
    if (!problems.empty()) problems += "; ";
    problems += "name must not contain whitespace";
  }
  if (tiers.empty()) {
    if (!problems.empty()) problems += "; ";
    problems += "campaign needs at least one tier";
  }
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    validate_tier(tiers[t], static_cast<int>(t), problems);
  }
  if (problems.empty()) return Status::Ok();
  return Status::Fail(Outcome::kInvalidOptions, "campaign_spec",
                      std::move(problems));
}

Json CampaignSpec::to_json() const {
  Json out = Json::object();
  out.set("name", Json(name));
  Json tiers_json = Json::array();
  for (const CampaignTier& tier : tiers) tiers_json.push_back(tier.to_json());
  out.set("tiers", std::move(tiers_json));
  return out;
}

CampaignSpec CampaignSpec::from_json(const Json& json) {
  ObjectReader reader(json, "CampaignSpec");
  CampaignSpec spec;
  reader.read("name", spec.name);
  if (const Json* tiers = reader.get("tiers")) {
    if (!tiers->is_array()) reader.fail("tiers", "must be an array");
    for (const Json& tier : tiers->as_array()) {
      spec.tiers.push_back(CampaignTier::from_json(tier));
    }
  }
  reader.reject_unread();
  return spec;
}

Status expand_campaign(const CampaignSpec& spec,
                       std::vector<CampaignJob>* out) {
  MFD_REQUIRE(out != nullptr, "expand_campaign(): out must not be null");
  const Status status = spec.validate();
  if (!status.ok()) return status;
  out->clear();
  for (const CampaignTier& tier : spec.tiers) {
    std::vector<FamilyMember> members;
    const Status family_status = expand_family(tier.family, &members);
    if (!family_status.ok()) return family_status;  // unreachable after validate()
    for (const FamilyMember& member : members) {
      // Serialize once per member; every kind's job shares the exact bytes,
      // so a JobContext parses the chip once for the whole member.
      const std::string chip_text = arch::chip_to_string(member.chip);
      const std::string assay_text = sched::assay_to_string(member.assay);
      for (const std::string& kind_name : tier.kinds) {
        CampaignJob job;
        const bool known = svc::job_kind_from_name(kind_name, &job.spec.kind);
        MFD_ASSERT(known, "validate() vetted every tier's kind names");
        job.spec.id = tier.name + "/" + member.name + "/" + kind_name;
        job.spec.chip_text = chip_text;
        if (job.spec.kind == svc::JobKind::kCodesign) {
          job.spec.assay_text = assay_text;
        }
        job.spec.universe = tier.universe;
        job.spec.seed = tier.job_seed;
        job.spec.threads = tier.threads;
        job.spec.outer_iterations = tier.outer_iterations;
        job.spec.outer_particles = tier.outer_particles;
        job.spec.config_pool_size = tier.config_pool_size;
        job.tier = tier.name;
        job.chip_name = member.name;
        job.grid_width = member.grid_width;
        job.grid_height = member.grid_height;
        job.valves = member.valves;
        out->push_back(std::move(job));
      }
    }
  }
  return Status::Ok();
}

CampaignReport summarize_campaign(const CampaignSpec& spec,
                                  const std::vector<CampaignJob>& jobs,
                                  const std::vector<svc::JobResult>& results,
                                  const svc::JobdReport& jobd) {
  MFD_REQUIRE(jobs.size() == results.size(),
              "summarize_campaign(): jobs/results size mismatch");
  CampaignReport report;
  report.campaign = spec.name;
  report.jobs = static_cast<int>(jobs.size());
  report.metrics = jobd.metrics;
  report.interrupted = jobd.interrupted;
  std::vector<std::string> chips_seen;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const CampaignJob& job = jobs[k];
    const svc::JobResult& result = results[k];
    if (std::find(chips_seen.begin(), chips_seen.end(), job.chip_name) ==
        chips_seen.end()) {
      chips_seen.push_back(job.chip_name);
      if (report.chips == 0) {
        report.valves_min = report.valves_max = job.valves;
      } else {
        report.valves_min = std::min(report.valves_min, job.valves);
        report.valves_max = std::max(report.valves_max, job.valves);
      }
      ++report.chips;
    }
    report.vectors_total += result.vectors;
    report.faults_total += result.total_faults;
    report.faults_detected += result.detected_faults;

    CampaignRow row;
    row.id = result.id;
    row.tier = job.tier;
    row.chip = job.chip_name;
    row.kind = svc::to_string(job.spec.kind);
    row.grid_width = job.grid_width;
    row.grid_height = job.grid_height;
    row.valves = job.valves;
    row.outcome = outcome_name(result.status.outcome);
    row.vectors = result.vectors;
    row.total_faults = result.total_faults;
    row.detected_faults = result.detected_faults;
    row.coverage = result.total_faults > 0
                       ? static_cast<double>(result.detected_faults) /
                             result.total_faults
                       : 0.0;
    row.resolution = result.resolution;
    row.makespan = result.makespan;
    row.dft_valves = result.dft_valves;
    row.run_seconds = result.run_seconds;
    report.rows.push_back(std::move(row));
  }
  return report;
}

Json CampaignReport::to_json() const {
  Json out = Json::object();
  out.set("campaign", Json(campaign));
  out.set("jobs", Json(std::int64_t{jobs}));
  out.set("jobs_ok", Json(metrics.jobs_ok));
  out.set("jobs_failed", Json(metrics.jobs_failed));
  out.set("jobs_stopped", Json(metrics.jobs_stopped));
  out.set("jobs_retried", Json(metrics.jobs_retried));
  out.set("jobs_quarantined", Json(metrics.jobs_quarantined));
  out.set("workers_lost", Json(metrics.workers_lost));
  out.set("jobs_resumed", Json(metrics.jobs_resumed));
  out.set("suites_reused", Json(metrics.suites_reused));
  out.set("interrupted", Json(interrupted));
  out.set("chips", Json(std::int64_t{chips}));
  out.set("valves_min", Json(std::int64_t{valves_min}));
  out.set("valves_max", Json(std::int64_t{valves_max}));
  out.set("vectors_total", Json(static_cast<std::int64_t>(vectors_total)));
  out.set("faults_total", Json(static_cast<std::int64_t>(faults_total)));
  out.set("faults_detected",
          Json(static_cast<std::int64_t>(faults_detected)));
  out.set("wall_seconds", Json(metrics.wall_seconds));
  Json rows_json = Json::array();
  for (const CampaignRow& row : rows) {
    Json row_json = Json::object();
    row_json.set("id", Json(row.id));
    row_json.set("tier", Json(row.tier));
    row_json.set("chip", Json(row.chip));
    row_json.set("kind", Json(row.kind));
    row_json.set("grid_width", Json(std::int64_t{row.grid_width}));
    row_json.set("grid_height", Json(std::int64_t{row.grid_height}));
    row_json.set("valves", Json(std::int64_t{row.valves}));
    row_json.set("outcome", Json(row.outcome));
    row_json.set("vectors", Json(std::int64_t{row.vectors}));
    row_json.set("total_faults", Json(std::int64_t{row.total_faults}));
    row_json.set("detected_faults", Json(std::int64_t{row.detected_faults}));
    row_json.set("coverage", Json(row.coverage));
    row_json.set("resolution", Json(row.resolution));
    row_json.set("makespan", Json(row.makespan));
    row_json.set("dft_valves", Json(std::int64_t{row.dft_valves}));
    row_json.set("run_seconds", Json(row.run_seconds));
    rows_json.push_back(std::move(row_json));
  }
  out.set("rows", std::move(rows_json));
  return out;
}

Status run_campaign(const CampaignSpec& spec,
                    const CampaignRunOptions& options, CampaignOutcome* out) {
  MFD_REQUIRE(out != nullptr, "run_campaign(): out must not be null");
  const Status expand_status = expand_campaign(spec, &out->jobs);
  if (!expand_status.ok()) return expand_status;

  // Feed the batch through the exact svc::run_jobd() code path the
  // mfdft_jobd tool uses, so every byte-identity guarantee (threads,
  // workers, cache on/off, a daemon) carries over to campaigns unchanged.
  std::ostringstream jobs_jsonl;
  for (const CampaignJob& job : out->jobs) {
    jobs_jsonl << job.spec.to_json().dump() << '\n';
  }
  std::istringstream in(std::move(jobs_jsonl).str());
  std::ostringstream results_stream;
  out->jobd = svc::run_jobd(in, results_stream, options.jobd, &out->results);
  out->results_jsonl = std::move(results_stream).str();
  // Durability was requested and could not be provided (the journal did
  // not open or lost a record write), or the daemon did not answer every
  // job: its journal keeps what arrived.
  if (!out->jobd.journal_status.ok()) return out->jobd.journal_status;
  if (!out->jobd.connection.ok()) return out->jobd.connection;
  out->report = summarize_campaign(spec, out->jobs, out->results, out->jobd);
  return Status::Ok();
}

}  // namespace mfd::workload
