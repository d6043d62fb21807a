// Campaign driver: expands a chip/assay family campaign into a JobSpec
// batch, runs it through the service layer, and reports the aggregate —
// the scale workload of the FPVA subsystem (src/workload/).
//
//   ./build/tools/mfdft_campaign --preset smoke --out results.jsonl
//       --json BENCH_campaign.json
//   ./build/tools/mfdft_campaign --spec campaign.json --threads 4
//   ./build/tools/mfdft_campaign --preset scale --workers 2
//   ./build/tools/mfdft_campaign --preset smoke --connect HOST:PORT
//
//   --spec PATH        CampaignSpec JSON file (see workload/campaign.hpp)
//   --preset NAME      built-in campaign: "smoke" (tiny FPVA family +
//                      one codesign tier; CI-sized) or "scale" (8 chips,
//                      FPVA grids 8x8..17x17 = 112..544 valves, full
//                      testgen + fault-sim + codesign)
//   --emit-jobs PATH   write the expanded JobSpec JSONL and exit (feed it
//                      to mfdft_jobd / a daemon by hand)
//   --out PATH         results.jsonl (byte-identical for every --threads/
//                      --workers value; default: not written)
//   --json PATH        BENCH_campaign.json campaign report
//   --threads N        in-process job-level workers (0 = hardware)
//   --workers N        crash-isolated mfdft_jobd worker subprocesses
//   --jobd-bin PATH    worker binary (default: mfdft_jobd next to this one)
//   --connect H:P      run the batch through a remote mfdft_jobd daemon
//   --priority CLASS   daemon-client default class (interactive|bulk)
//   --cache-dir PATH   persistent fitness-cache directory
//   --cache-mb N       in-memory cache budget in MiB (default 256)
//   --no-shared-cache  per-job private caches
//   --journal DIR      durable execution: fsync every completed job's
//                      result into DIR/results.journal, so a crashed or
//                      killed campaign loses at most its in-flight jobs
//   --resume           with --journal: adopt completed jobs from the
//                      journal (verified against this campaign's exact
//                      job lines) and run only the rest; --out comes out
//                      byte-identical to an uninterrupted campaign
//
// Exit status: 0 when every job ran OK, 3 when some failed or were stopped
// (their Status is in the results), 2 on usage errors (a numeric flag must
// parse whole) or I/O errors, 4 when the campaign was
// interrupted (SIGINT/SIGTERM drain, or a lost daemon connection with
// --journal) — rerun with --journal/--resume to finish.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "common/run_control.hpp"
#include "net/socket.hpp"
#include "svc/daemon.hpp"
#include "workload/campaign.hpp"
#include "flags.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--spec PATH | --preset smoke|scale] [--emit-jobs PATH]\n"
      "       [--out PATH] [--json PATH] [--threads N] [--workers N]\n"
      "       [--jobd-bin PATH] [--connect HOST:PORT] [--priority CLASS]\n"
      "       [--cache-dir PATH] [--cache-mb N] [--no-shared-cache]\n"
      "       [--journal DIR] [--resume]\n",
      argv0);
  return 2;
}

/// Drain control for the local execution path: request_cancel() is a
/// single atomic store, safe to call from the signal handler.
mfd::RunControl g_campaign_control;

void request_drain(int) { g_campaign_control.request_cancel(); }

/// Directory of this binary; workers default to the mfdft_jobd next to it.
std::string sibling_jobd(const char* argv0) {
  char buffer[4096];
  std::string self(argv0);
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    self.assign(buffer);
  }
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/mfdft_jobd";
}

/// Tiny end-to-end family: what CI's campaign-smoke job runs. Small enough
/// for Debug sanitizer builds, but still FPVA grids + a codesign tier.
mfd::workload::CampaignSpec smoke_campaign() {
  mfd::workload::CampaignSpec spec;
  spec.name = "smoke";

  mfd::workload::CampaignTier fpva;
  fpva.name = "fpva";
  fpva.family.name = "fpva";
  fpva.family.kind = "fpva";
  fpva.family.count = 2;
  fpva.family.seed = 7;
  fpva.family.rows_min = 5;
  fpva.family.rows_max = 6;
  fpva.family.cols_min = 5;
  fpva.family.cols_max = 6;
  fpva.family.ports = 4;
  fpva.family.mixers = 1;
  fpva.family.detectors = 1;
  fpva.kinds = {"testgen", "coverage", "diagnosis"};
  fpva.universe = "stuck_at_leakage";
  spec.tiers.push_back(fpva);

  mfd::workload::CampaignTier codesign;
  codesign.name = "codesign";
  codesign.family.name = "synth";
  codesign.family.kind = "synthetic";
  codesign.family.count = 1;
  codesign.family.seed = 11;
  codesign.family.rows_min = codesign.family.rows_max = 5;
  codesign.family.cols_min = codesign.family.cols_max = 6;
  codesign.family.ports = 3;
  codesign.family.mixers = 2;
  codesign.family.detectors = 1;
  codesign.family.assay_ops_min = 6;
  codesign.family.assay_ops_max = 8;
  codesign.kinds = {"codesign"};
  codesign.outer_iterations = 1;
  codesign.outer_particles = 1;
  codesign.config_pool_size = 1;
  spec.tiers.push_back(codesign);
  return spec;
}

/// The acceptance-scale campaign: 8 seeded chips — FPVA grids sweeping
/// 8x8 to 17x17 (112 to 544 valves) through testgen + fault simulation +
/// diagnosis, plus a synthetic codesign tier (dense full arrays exceed
/// the path ILP's max_paths budget, so codesign runs on the synthetic
/// family; light PSO knobs keep the whole campaign in seconds). No
/// deadlines anywhere, so results are byte-identical for every
/// --threads/--workers setting.
mfd::workload::CampaignSpec scale_campaign() {
  mfd::workload::CampaignSpec spec;
  spec.name = "scale";

  mfd::workload::CampaignTier fpva;
  fpva.name = "fpva";
  fpva.family.name = "fpva";
  fpva.family.kind = "fpva";
  fpva.family.count = 7;
  fpva.family.seed = 2024;
  fpva.family.rows_min = 8;
  fpva.family.rows_max = 17;
  fpva.family.cols_min = 8;
  fpva.family.cols_max = 17;
  fpva.family.ports = 4;
  fpva.family.mixers = 2;
  fpva.family.detectors = 1;
  fpva.kinds = {"testgen", "coverage", "diagnosis"};
  fpva.universe = "stuck_at_leakage";
  spec.tiers.push_back(fpva);

  mfd::workload::CampaignTier codesign;
  codesign.name = "codesign";
  codesign.family.name = "synth";
  codesign.family.kind = "synthetic";
  codesign.family.count = 1;
  codesign.family.seed = 11;
  codesign.family.rows_min = codesign.family.rows_max = 5;
  codesign.family.cols_min = codesign.family.cols_max = 6;
  codesign.family.ports = 3;
  codesign.family.mixers = 2;
  codesign.family.detectors = 1;
  codesign.family.assay_ops_min = 6;
  codesign.family.assay_ops_max = 8;
  codesign.kinds = {"codesign"};
  codesign.outer_iterations = 1;
  codesign.outer_particles = 1;
  codesign.config_pool_size = 1;
  spec.tiers.push_back(codesign);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);

  std::string spec_path;
  std::string preset;
  std::string emit_jobs_path;
  std::string out_path;
  std::string json_path;
  std::string jobd_bin;
  std::string connect_spec;
  std::string priority;
  mfd::workload::CampaignRunOptions options;

  mfd::tools::Flags flags(argc, argv);
  while (flags.next()) {
    const std::string arg = flags.arg();
    bool ok = true;
    if (arg == "--spec") {
      ok = flags.take(&spec_path);
    } else if (arg == "--preset") {
      ok = flags.take(&preset);
    } else if (arg == "--emit-jobs") {
      ok = flags.take(&emit_jobs_path);
    } else if (arg == "--out") {
      ok = flags.take(&out_path);
    } else if (arg == "--json") {
      ok = flags.take(&json_path);
    } else if (arg == "--threads") {
      ok = flags.take(&options.jobd.threads);
    } else if (arg == "--workers") {
      ok = flags.take(&options.jobd.workers);
    } else if (arg == "--jobd-bin") {
      ok = flags.take(&jobd_bin);
    } else if (arg == "--connect") {
      ok = flags.take(&connect_spec);
    } else if (arg == "--priority") {
      ok = flags.take(&priority);
    } else if (arg == "--cache-dir") {
      ok = flags.take(&options.jobd.cache_dir);
    } else if (arg == "--cache-mb") {
      ok = flags.take(&options.jobd.cache_mb);
    } else if (arg == "--no-shared-cache") {
      options.jobd.shared_cache = false;
    } else if (arg == "--journal") {
      ok = flags.take(&options.jobd.journal_dir);
    } else if (arg == "--resume") {
      options.jobd.resume = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  if (!spec_path.empty() && !preset.empty()) {
    std::fprintf(stderr, "%s: --spec and --preset are mutually exclusive\n",
                 argv[0]);
    return 2;
  }
  if (options.jobd.resume && options.jobd.journal_dir.empty()) {
    std::fprintf(stderr, "%s: --resume requires --journal DIR\n", argv[0]);
    return 2;
  }
  if (options.jobd.workers > 0) {
    options.jobd.worker_command = {
        jobd_bin.empty() ? sibling_jobd(argv[0]) : jobd_bin, "--worker"};
  }
  const mfd::Status valid_options = options.jobd.validate();
  if (!valid_options.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 valid_options.to_string().c_str());
    return 2;
  }

  // Resolve the campaign spec.
  mfd::workload::CampaignSpec spec;
  try {
    if (!spec_path.empty()) {
      std::ifstream spec_file(spec_path);
      if (!spec_file) {
        std::fprintf(stderr, "%s: cannot open spec '%s'\n", argv[0],
                     spec_path.c_str());
        return 2;
      }
      std::ostringstream text;
      text << spec_file.rdbuf();
      spec = mfd::workload::CampaignSpec::from_json(
          mfd::Json::parse(text.str()));
    } else if (preset.empty() || preset == "smoke") {
      spec = smoke_campaign();
    } else if (preset == "scale") {
      spec = scale_campaign();
    } else {
      std::fprintf(stderr, "%s: unknown preset '%s' (want smoke or scale)\n",
                   argv[0], preset.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: bad campaign spec: %s\n", argv[0], e.what());
    return 2;
  }

  const mfd::Status valid = spec.validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], valid.to_string().c_str());
    return 2;
  }

  // --emit-jobs: expansion only, for driving mfdft_jobd / a daemon by hand.
  if (!emit_jobs_path.empty()) {
    std::vector<mfd::workload::CampaignJob> jobs;
    const mfd::Status expanded = mfd::workload::expand_campaign(spec, &jobs);
    if (!expanded.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], expanded.to_string().c_str());
      return 2;
    }
    std::ofstream jobs_file(emit_jobs_path);
    if (!jobs_file) {
      std::fprintf(stderr, "%s: cannot open '%s'\n", argv[0],
                   emit_jobs_path.c_str());
      return 2;
    }
    for (const mfd::workload::CampaignJob& job : jobs) {
      jobs_file << job.spec.to_json().dump() << '\n';
    }
    jobs_file.flush();
    if (!jobs_file) {
      std::fprintf(stderr, "%s: write to '%s' failed\n", argv[0],
                   emit_jobs_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "mfdft_campaign: %zu jobs -> %s\n", jobs.size(),
                 emit_jobs_path.c_str());
    return 0;
  }

  mfd::workload::CampaignOutcome outcome;
  if (!connect_spec.empty()) {
    // Daemon mode: expand locally, stream the batch through the remote
    // daemon (same JSONL protocol), summarize its byte-identical results.
    mfd::net::Endpoint endpoint;
    std::string parse_error;
    if (!mfd::net::parse_host_port(connect_spec, &endpoint, &parse_error)) {
      std::fprintf(stderr, "%s: bad --connect spec '%s': %s\n", argv[0],
                   connect_spec.c_str(), parse_error.c_str());
      return 2;
    }
    const mfd::Status expanded =
        mfd::workload::expand_campaign(spec, &outcome.jobs);
    if (!expanded.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], expanded.to_string().c_str());
      return 2;
    }
    std::ostringstream jobs_jsonl;
    for (const mfd::workload::CampaignJob& job : outcome.jobs) {
      jobs_jsonl << job.spec.to_json().dump() << '\n';
    }
    std::istringstream daemon_in(jobs_jsonl.str());
    std::ostringstream daemon_out;
    mfd::svc::ClientOptions client_options;
    client_options.host = endpoint.host;
    client_options.port = endpoint.port;
    client_options.priority = priority;
    // Chaos plan for client-side network points (conn_drop); inert unless
    // MFDFT_FAULT_INJECT names one.
    const mfd::FaultInjectPlan faults = mfd::FaultInjectPlan::from_env();
    client_options.faults = &faults;
    const mfd::Status client_status = mfd::svc::run_daemon_client(
        daemon_in, daemon_out, client_options, options.jobd.journal_dir,
        options.jobd.resume, &outcome.jobd.metrics);
    if (!client_status.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0],
                   client_status.to_string().c_str());
      // With a journal, everything received so far is durable — the
      // campaign is resumable, a typed partial rather than a hard error.
      return options.jobd.journal_dir.empty() ? 2 : 4;
    }
    outcome.results_jsonl = daemon_out.str();
    std::istringstream results_in(outcome.results_jsonl);
    std::string line;
    try {
      while (std::getline(results_in, line)) {
        if (line.empty()) continue;
        outcome.results.push_back(
            mfd::svc::JobResult::from_json(mfd::Json::parse(line)));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: unparseable daemon result: %s\n", argv[0],
                   e.what());
      return 2;
    }
    if (outcome.results.size() != outcome.jobs.size()) {
      std::fprintf(stderr, "%s: daemon returned %zu results for %zu jobs\n",
                   argv[0], outcome.results.size(), outcome.jobs.size());
      return 2;
    }
    outcome.report = mfd::workload::summarize_campaign(
        spec, outcome.jobs, outcome.results, outcome.jobd);
  } else {
    // Graceful drain: SIGINT/SIGTERM stop admission, unstarted jobs come
    // back "cancelled", the journal (if any) stays consistent, exit 4.
    options.jobd.control = &g_campaign_control;
    std::signal(SIGINT, request_drain);
    std::signal(SIGTERM, request_drain);
    const mfd::Status run_status =
        mfd::workload::run_campaign(spec, options, &outcome);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (!run_status.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0],
                   run_status.to_string().c_str());
      return 2;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out_file(out_path, std::ios::binary);
    if (!out_file) {
      std::fprintf(stderr, "%s: cannot open output '%s'\n", argv[0],
                   out_path.c_str());
      return 2;
    }
    out_file << outcome.results_jsonl;
    out_file.flush();
    if (!out_file) {
      std::fprintf(stderr, "%s: write to '%s' failed\n", argv[0],
                   out_path.c_str());
      return 2;
    }
  }
  if (!json_path.empty()) {
    try {
      outcome.report.to_json().save(json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  const mfd::workload::CampaignReport& report = outcome.report;
  std::fprintf(stderr,
               "mfdft_campaign: %s: %d chips (%d-%d valves), %lld vectors, "
               "%lld/%lld faults detected; %s\n",
               report.campaign.c_str(), report.chips, report.valves_min,
               report.valves_max, report.vectors_total, report.faults_detected,
               report.faults_total, report.metrics.summary().c_str());
  if (report.interrupted) {
    std::fprintf(stderr,
                 "mfdft_campaign: interrupted; rerun with --journal/--resume "
                 "to finish the remaining jobs\n");
    return 4;
  }
  return report.metrics.jobs_ok == report.jobs ? 0 : 3;
}
