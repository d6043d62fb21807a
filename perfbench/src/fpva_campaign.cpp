// fpva_campaign: an FPVA-only family (16x16 to 32x32 arrays, 480 to 1,984
// valves) expanded into testgen + coverage + diagnosis jobs and run through
// workload::run_campaign, which drives svc::run_jobd in-process. Multiport
// test generation, batch fault simulation, diagnosis and the job codec do
// the work; the ILP, the scheduler and the PSO do none, so every codesign
// optimisation must predict no change here.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "svc/jobd.hpp"
#include "workload/campaign.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mfd::Json;

constexpr int kJobThreads = 2;
/// expand_campaign + encoding takes ~12 ms; it is sampled this many times
/// before the first campaign and after every campaign (see setup_seconds).
constexpr int kSetupSamplesPerPoint = 4;

mfd::workload::CampaignSpec campaign_spec(std::uint64_t family_seed) {
  mfd::workload::CampaignTier tier;
  tier.name = "fpva";
  tier.family.name = "fpva";
  tier.family.kind = "fpva";
  tier.family.count = 16;
  tier.family.seed = family_seed;
  tier.family.rows_min = 16;
  tier.family.rows_max = 32;
  tier.family.cols_min = 16;
  tier.family.cols_max = 32;
  tier.family.ports = 4;
  tier.family.mixers = 2;
  tier.family.detectors = 1;
  tier.kinds = {"testgen", "coverage", "diagnosis"};
  tier.universe = "stuck_at_leakage";
  mfd::workload::CampaignSpec spec;
  spec.name = "fpva_campaign";
  spec.tiers.push_back(tier);
  return spec;
}

/// Set-up: family generation and chip serialization (expand_campaign) and
/// job encoding. run_campaign repeats both inside every campaign; they are
/// ~0.2% of its time.
struct Inputs {
  mfd::workload::CampaignSpec spec;
  std::vector<mfd::workload::CampaignJob> jobs;
  std::vector<std::string> lines;
};

Inputs make_inputs(std::uint64_t family_seed) {
  Inputs inputs;
  inputs.spec = campaign_spec(family_seed);
  const mfd::Status expanded =
      mfd::workload::expand_campaign(inputs.spec, &inputs.jobs);
  MFD_REQUIRE(expanded.ok(), "fpva_campaign spec: " + expanded.to_string());
  for (const mfd::workload::CampaignJob& job : inputs.jobs) {
    inputs.lines.push_back(job.spec.to_json().dump());
  }
  return inputs;
}

struct Campaign {
  double wall_s = 0.0;
  mfd::Status status;
  mfd::workload::CampaignOutcome outcome;
};

Campaign time_campaign(const mfd::workload::CampaignSpec& spec, int threads,
                      mfd::Tracer* tracer) {
  mfd::workload::CampaignRunOptions options;
  options.jobd.threads = threads;
  options.jobd.tracer = tracer;
  Campaign campaign;
  const Clock::time_point start = Clock::now();
  campaign.status = mfd::workload::run_campaign(spec, options, &campaign.outcome);
  campaign.wall_s = seconds_since(start);
  return campaign;
}

}  // namespace

Report run_fpva_campaign(const Args& args) {
  Report report;
  report.stamp.set("job_threads", Json(kJobThreads));
  report.stamp.set("family_seed",
                   Json(static_cast<std::int64_t>(args.family_seed)));

  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  const Inputs inputs = make_inputs(args.family_seed);
  setup_s.push_back(seconds_since(t0));
  const auto sample_setup = [&](int samples) {
    for (int k = 0; k < samples; ++k) {
      t0 = Clock::now();
      const Inputs again = make_inputs(args.family_seed);
      setup_s.push_back(seconds_since(t0));
    }
  };
  sample_setup(kSetupSamplesPerPoint - 1);
  const std::size_t jobs = inputs.jobs.size();
  report.stamp.set("jobs", Json(static_cast<std::int64_t>(jobs)));
  std::size_t input_bytes = 0;
  for (const std::string& line : inputs.lines) input_bytes += line.size() + 1;
  report.stamp.set("input_bytes", Json(static_cast<std::int64_t>(input_bytes)));

  const std::string reference_path = args.reference_dir + "/fpva_campaign.json";
  const bool default_seed = args.family_seed == kBaseSeed;
  Json reference = Json::object();
  const bool have_reference = read_json_file(reference_path, &reference);
  if (!have_reference && !args.write_reference) {
    report.fail("missing reference " + reference_path);
  }

  std::string first_bytes;
  const auto check_campaign = [&](const Campaign& campaign) {
    report.attempted += static_cast<std::int64_t>(jobs);
    const mfd::workload::CampaignOutcome& out = campaign.outcome;
    if (!campaign.status.ok() || out.results.size() != jobs ||
        out.report.jobs != static_cast<int>(jobs)) {
      report.fail("campaign: " + campaign.status.to_string() + ", " +
                  std::to_string(out.results.size()) + " results for " +
                  std::to_string(jobs) + " jobs");
    }
    for (const mfd::svc::JobResult& result : out.results) {
      if (!result.status.ok()) {
        report.fail(result.id + ": " + result.status.to_string());
      }
    }
    if (first_bytes.empty()) first_bytes = out.results_jsonl;
    if (out.results_jsonl != first_bytes) {
      report.fail("results.jsonl differs between runs");
    }
    if (default_seed && have_reference && !args.write_reference) {
      const std::string digest = fnv1a_hex(out.results_jsonl);
      const Json* want = reference.get("results_fnv1a");
      if (want == nullptr || want->as_string() != digest) {
        report.fail("results.jsonl digest " + digest + " differs from " +
                    reference_path);
      }
    }
  };

  if (!args.trace) {
    // Campaigns run while the next one still fits in the measuring time.
    std::vector<double> wall_s;
    // Every job of every campaign is one latency sample. Per-job medians
    // over a few campaigns flip with a shared host's fast and slow phases,
    // and a p50 taken over them spread twice as much across runs (README.md).
    std::vector<double> job_s;
    const Clock::time_point start = Clock::now();
    while (wall_s.empty() ||
           seconds_since(start) + wall_s.back() <= args.seconds) {
      {
        const Campaign campaign =
            time_campaign(inputs.spec, kJobThreads, nullptr);
        check_campaign(campaign);
        wall_s.push_back(campaign.wall_s);
        const std::vector<double>& job_run_s =
            campaign.outcome.jobd.job_run_seconds;
        job_s.insert(job_s.end(), job_run_s.begin(), job_run_s.end());
      }
      // After the campaign's outcome is freed, so that the samples do not
      // add to the campaign's peak RSS.
      sample_setup(kSetupSamplesPerPoint);
    }
    if (!default_seed) {
      // Result bytes may not depend on the job thread count.
      const Campaign serial = time_campaign(inputs.spec, 1, nullptr);
      if (serial.outcome.results_jsonl != first_bytes) {
        report.fail("results.jsonl differs between 1 and 2 job threads");
      }
    }
    if (args.write_reference && default_seed) {
      Json written = Json::object();
      written.set("family_seed", Json(static_cast<std::int64_t>(kBaseSeed)));
      written.set("jobs", Json(static_cast<std::int64_t>(jobs)));
      written.set("results_fnv1a", Json(fnv1a_hex(first_bytes)));
      write_json_file(reference_path, written);
    }
    Json campaigns = Json::array();
    for (const double s : wall_s) campaigns.push_back(Json(s));
    report.stamp.set("campaign_wall_s", std::move(campaigns));
    report.stamp.set("latency_samples",
                     Json(static_cast<std::int64_t>(job_s.size())));
    report.stamp.set("setup_samples",
                     Json(static_cast<std::int64_t>(setup_s.size())));
    report.add("wall_s", median(wall_s), "s");
    report.add("p50_ms", 1e3 * quantile(job_s, 0.50), "ms");
    report.add("p90_ms", 1e3 * quantile(job_s, 0.90), "ms");
    report.add("setup_s", setup_seconds(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced mode: one plain campaign; one with the dispatcher's job spans
  // routed into the recorder; the same campaign again with only the
  // library's trace recorded, for the deterministic-counter check; then
  // timed calls into each layer.
  const Campaign plain = time_campaign(inputs.spec, kJobThreads, nullptr);
  check_campaign(plain);
  LibraryTrace trace;
  Recorder& recorder = trace.recorder;
  const Campaign traced = [&] {
    const auto s = span(&recorder, "workload.run_campaign", "campaign");
    return time_campaign(inputs.spec, kJobThreads, &trace.tracer);
  }();
  check_campaign(traced);
  LibraryTrace repeat_trace;
  const Campaign repeat =
      time_campaign(inputs.spec, kJobThreads, &repeat_trace.tracer);
  check_campaign(repeat);

  t0 = Clock::now();
  {
    const auto s = span(&recorder, "workload.expand_campaign", "setup");
    std::vector<mfd::workload::CampaignJob> expanded;
    (void)mfd::workload::expand_campaign(inputs.spec, &expanded);
  }
  const double expand_s = seconds_since(t0);
  std::vector<std::string> chip_texts;
  std::set<std::string> seen;
  for (const mfd::workload::CampaignJob& job : inputs.jobs) {
    if (seen.insert(job.spec.chip_text).second) {
      chip_texts.push_back(job.spec.chip_text);
    }
  }
  LayerProbe probe;
  probe_chips(chip_texts, mfd::sim::FaultUniverse::kStuckAtAndLeakage,
              &recorder, &probe);
  LayerProbe repeat_probe;
  probe_chips(chip_texts, mfd::sim::FaultUniverse::kStuckAtAndLeakage,
              nullptr, &repeat_probe);
  probe_codec(inputs.lines, traced.outcome.results, &recorder, &probe);

  LayerCounts counts;
  read_ilp_counters(recorder, &counts);
  read_eval_stats(traced.outcome.jobd.metrics.stats, &counts);
  LayerCounts repeat_counts;
  read_ilp_counters(repeat_trace.recorder, &repeat_counts);
  read_eval_stats(repeat.outcome.jobd.metrics.stats, &repeat_counts);
  const double overhead_pct =
      100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s;
  add_layer_metrics(counts, probe, overhead_pct, &report);

  double job_run_s = 0.0;
  for (const double s : traced.outcome.jobd.job_run_seconds) job_run_s += s;
  char line[256];
  std::snprintf(line, sizeof line,
                "fpva_campaign layers: workload.expand_s=%.4f svc.job_run_s=%.4f "
                "svc.queue_wait_s=%.4f wall_s plain=%.4f traced=%.4f",
                expand_s, job_run_s,
                traced.outcome.jobd.metrics.queue_wait_seconds_total,
                plain.wall_s, traced.wall_s);
  report.notes.push_back(line);
  note_self_times(recorder, &report);
  check_repeat(deterministic_counts(counts, probe),
               deterministic_counts(repeat_counts, repeat_probe), &report);
  recorder.write_jsonl(args.state_dir + "/trace-fpva_campaign.jsonl");
  return report;
}

}  // namespace perfbench
