// Scale campaigns: family sweeps driven through the job service.
//
// A CampaignSpec is a list of tiers, each pairing a chip/assay family
// (workload/family.hpp) with the job kinds to run over every member.
// expand_campaign() lowers the tiers into an ordinary svc::JobSpec batch —
// generated chips travel inline as `chip_text`, generated assays as
// `assay_text` — so the batch runs through the exact same svc::run_jobd()
// path as a hand-written job file: in-process threads, crash-isolated
// workers, or a remote daemon (JobdOptions::connect), journaled and
// resumable, with the same byte-identical results.jsonl guarantee
// (campaign jobs carry no deadlines; deadline truncation is wall-clock
// dependent and would break it). run_campaign() does the whole loop in one
// call and aggregates the results into a CampaignReport, the payload of
// BENCH_campaign.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"
#include "workload/family.hpp"

namespace mfd::workload {

/// One tier of a campaign: a family and the per-member jobs to expand.
struct CampaignTier {
  /// Tier label, used in job ids ("tier/member/kind"); no whitespace.
  std::string name = "tier";
  FamilySpec family;
  /// Job kinds expanded per member, in order ("testgen", "coverage",
  /// "diagnosis", "codesign").
  std::vector<std::string> kinds = {"testgen"};
  /// Fault universe for coverage/diagnosis jobs.
  std::string universe = "stuck_at";
  /// Per-job settings (JobSpec fields; threads is the *within-job*
  /// evaluation parallelism and never changes result bytes). job_seed is at
  /// most svc::kMaxSeed.
  std::uint64_t job_seed = 2024;
  int threads = 1;
  /// Codesign knobs for "codesign" kinds.
  int outer_iterations = 4;
  int outer_particles = 2;
  int config_pool_size = 2;

  [[nodiscard]] Json to_json() const;
  static CampaignTier from_json(const Json& json);
  [[nodiscard]] bool operator==(const CampaignTier&) const = default;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<CampaignTier> tiers;

  /// Checks every tier (and its family) and reports all violations in one
  /// Status (stage "campaign_spec", outcome kInvalidOptions).
  [[nodiscard]] Status validate() const;

  [[nodiscard]] Json to_json() const;
  static CampaignSpec from_json(const Json& json);
  [[nodiscard]] bool operator==(const CampaignSpec&) const = default;
};

/// One expanded job plus the chip metadata the report carries (a JobResult
/// does not echo chip size back).
struct CampaignJob {
  svc::JobSpec spec;
  std::string tier;
  std::string chip_name;
  int grid_width = 0;
  int grid_height = 0;
  int valves = 0;
};

/// Expands every tier into jobs, member-major within a tier (member 0's
/// kinds, then member 1's, ...). Job ids are "tier/member/kind". Returns
/// kInvalidOptions instead of throwing on a bad spec.
[[nodiscard]] Status expand_campaign(const CampaignSpec& spec,
                                     std::vector<CampaignJob>* out);

/// Per-job row of the campaign report.
struct CampaignRow {
  std::string id;
  std::string tier;
  std::string chip;
  std::string kind;
  int grid_width = 0;
  int grid_height = 0;
  int valves = 0;
  std::string outcome;
  int vectors = 0;
  int total_faults = 0;
  int detected_faults = 0;
  double coverage = 0.0;
  double resolution = 0.0;
  double makespan = 0.0;
  int dft_valves = 0;
  /// Wall time of the job (bench payload only; results.jsonl never carries
  /// wall clocks).
  double run_seconds = 0.0;
};

/// Aggregated campaign outcome — the BENCH_campaign.json payload.
struct CampaignReport {
  std::string campaign;
  int jobs = 0;
  /// The batch's service metrics (svc/job.hpp): outcome buckets, recovery
  /// counters (retries, quarantines, worker losses, resumed jobs), multiport
  /// suites reused across a member's jobs and wall time, as run_jobd()
  /// counted them.
  svc::ServiceMetrics metrics;
  /// True when the batch was drained by a stop signal before completing —
  /// the journal (if any) makes the campaign resumable.
  bool interrupted = false;
  int chips = 0;
  int valves_min = 0;
  int valves_max = 0;
  long long vectors_total = 0;
  /// Summed over the rows, each with its own fault universe; a diagnosis
  /// row detects every fault it does not leave undetected.
  long long faults_total = 0;
  long long faults_detected = 0;
  std::vector<CampaignRow> rows;

  [[nodiscard]] Json to_json() const;
};

/// Builds the report from expanded jobs and their results (matched by batch
/// position) and the report of the run that produced them: its metrics and
/// whether it was interrupted.
[[nodiscard]] CampaignReport summarize_campaign(
    const CampaignSpec& spec, const std::vector<CampaignJob>& jobs,
    const std::vector<svc::JobResult>& results, const svc::JobdReport& jobd);

/// How run_campaign() executes the expanded batch: locally, or on a daemon
/// with `jobd.connect`.
struct CampaignRunOptions {
  svc::JobdOptions jobd;
};

struct CampaignOutcome {
  std::vector<CampaignJob> jobs;
  /// Exact bytes svc::run_jobd() wrote — byte-identical across threads,
  /// workers and transports for a fixed spec.
  std::string results_jsonl;
  /// The results those bytes encode, in batch order, as run_jobd() holds
  /// them (run_seconds set for the jobs this process ran).
  std::vector<svc::JobResult> results;
  svc::JobdReport jobd;
  CampaignReport report;
};

/// Expands the spec, runs the batch through svc::run_jobd() with the given
/// options, and fills `out`. Returns kInvalidOptions on a bad spec, the
/// journal's failure when durability was requested and could not be
/// provided, and the connection's failure when a daemon did not answer
/// every job (its journal keeps what arrived); individual job failures do
/// not fail the campaign (their Status is in the rows).
[[nodiscard]] Status run_campaign(const CampaignSpec& spec,
                                  const CampaignRunOptions& options,
                                  CampaignOutcome* out);

}  // namespace mfd::workload
