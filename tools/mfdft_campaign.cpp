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
//   --connect H:P      run the batch on a remote mfdft_jobd daemon (with
//                      --journal/--resume as in a local run; no drain: a
//                      signal kills the client, the journal keeps what
//                      arrived)
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
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "common/run_control.hpp"
#include "net/socket.hpp"
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

/// An FPVA tier: `count` grids with rows and columns in [side_min,
/// side_max], each through testgen, fault simulation and diagnosis over the
/// leakage fault universe.
mfd::workload::CampaignTier fpva_tier(int count, std::uint64_t seed,
                                      int side_min, int side_max, int mixers) {
  mfd::workload::CampaignTier tier;
  tier.name = "fpva";
  tier.family.name = "fpva";
  tier.family.kind = "fpva";
  tier.family.count = count;
  tier.family.seed = seed;
  tier.family.rows_min = tier.family.cols_min = side_min;
  tier.family.rows_max = tier.family.cols_max = side_max;
  tier.family.ports = 4;
  tier.family.mixers = mixers;
  tier.family.detectors = 1;
  tier.kinds = {"testgen", "coverage", "diagnosis"};
  tier.universe = "stuck_at_leakage";
  return tier;
}

/// The codesign tier both presets end with: one synthetic 5x6 chip (dense
/// full arrays exceed the path ILP's max_paths budget) with light PSO knobs,
/// so it runs in seconds.
mfd::workload::CampaignTier codesign_tier() {
  mfd::workload::CampaignTier tier;
  tier.name = "codesign";
  tier.family.name = "synth";
  tier.family.kind = "synthetic";
  tier.family.count = 1;
  tier.family.seed = 11;
  tier.family.rows_min = tier.family.rows_max = 5;
  tier.family.cols_min = tier.family.cols_max = 6;
  tier.family.ports = 3;
  tier.family.mixers = 2;
  tier.family.detectors = 1;
  tier.family.assay_ops_min = 6;
  tier.family.assay_ops_max = 8;
  tier.kinds = {"codesign"};
  tier.outer_iterations = 1;
  tier.outer_particles = 1;
  tier.config_pool_size = 1;
  return tier;
}

/// Tiny end-to-end family: what CI's campaign-smoke job runs. Small enough
/// for Debug sanitizer builds, but still FPVA grids + a codesign tier.
mfd::workload::CampaignSpec smoke_campaign() {
  return {.name = "smoke",
          .tiers = {fpva_tier(2, 7, 5, 6, 1), codesign_tier()}};
}

/// The acceptance-scale campaign: 8 seeded chips — FPVA grids sweeping
/// 8x8 to 17x17 (112 to 544 valves) through testgen + fault simulation +
/// diagnosis, plus the codesign tier. No deadlines anywhere, so results
/// are byte-identical for every --threads/--workers setting.
mfd::workload::CampaignSpec scale_campaign() {
  return {.name = "scale",
          .tiers = {fpva_tier(7, 2024, 8, 17, 2), codesign_tier()}};
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

  if (!connect_spec.empty()) {
    mfd::net::Endpoint endpoint;
    std::string parse_error;
    if (!mfd::net::parse_host_port(connect_spec, &endpoint, &parse_error)) {
      std::fprintf(stderr, "%s: bad --connect spec '%s': %s\n", argv[0],
                   connect_spec.c_str(), parse_error.c_str());
      return 2;
    }
    options.jobd.connect =
        mfd::svc::ClientOptions{endpoint.host, endpoint.port, priority};
  }
  mfd::workload::CampaignOutcome outcome;
  if (!options.jobd.connect) {
    // Graceful drain of a local run: SIGINT/SIGTERM stop admission,
    // unstarted jobs come back "cancelled", the journal (if any) stays
    // consistent, exit 4. A client is simply killed: its journal keeps
    // what arrived.
    options.jobd.control = &g_campaign_control;
    std::signal(SIGINT, request_drain);
    std::signal(SIGTERM, request_drain);
  }
  const mfd::Status run_status =
      mfd::workload::run_campaign(spec, options, &outcome);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (!run_status.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], run_status.to_string().c_str());
    // A daemon that did not answer every job left everything that arrived
    // in the journal: resumable, a typed partial rather than a hard error.
    const bool resumable = outcome.jobd.journal_status.ok() &&
                           !outcome.jobd.connection.ok() &&
                           !options.jobd.journal_dir.empty();
    return resumable ? 4 : 2;
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
