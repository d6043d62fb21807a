// Batch job driver: runs a JSONL file of JobSpecs through the svc
// execution core and writes one JobResult JSON line per job, in input order.
// Output is byte-identical for a fixed job file regardless of --threads,
// and — for crash-free runs — regardless of --workers.
//
//   ./build/tools/mfdft_jobd --in jobs.jsonl --out results.jsonl
//       --threads 8 --deadline-s 30
//   ./build/tools/mfdft_jobd --in jobs.jsonl --out results.jsonl
//       --workers 4 --stall-timeout-s 60
//
//   --in PATH          job file, one JSON object per line (default: stdin)
//   --out PATH         result file (default: stdout)
//   --threads N        job-level workers incl. the caller (0 = hardware)
//   --workers N        crash-isolated worker subprocesses instead of
//                      threads; a crashing or wedged job costs one worker,
//                      never the batch (requeued with backoff, quarantined
//                      as "unavailable" after --max-attempts crashes)
//   --stall-timeout-s S  per-job watchdog of --workers (0 = off)
//   --max-attempts K   attempts per job before quarantine (--workers)
//   --deadline-s S     default per-job deadline for jobs that set none
//                      (at most 31536000, a year)
//   --cache-dir PATH   persistent fitness-cache directory: loaded warm at
//                      startup, appended to at exit, so repeated batches
//                      over the same chips skip recomputed evaluations
//                      (results are byte-identical either way)
//   --cache-mb N       in-memory fitness-cache budget in MiB (default 256,
//                      0 = unbounded)
//   --journal DIR      durable execution: append every completed job's
//                      result (fsync'd) to DIR/results.journal so a crashed
//                      or killed run loses at most its in-flight jobs
//   --resume           with --journal: adopt the journal's completed jobs
//                      (verified against this batch's exact input lines)
//                      and re-run only the rest; the results file comes out
//                      byte-identical to an uninterrupted run
//   --trace PATH       JSONL trace of per-job spans and service counters
//   --worker           internal: run as a supervisor-driven worker process
//                      (one request envelope per stdin line, one result
//                      line per job on stdout; reads only --cache-dir and
//                      --cache-mb, per worker)
//
// Networked modes (same JSONL protocol over TCP — see svc/daemon.hpp):
//
//   --listen HOST:PORT   long-lived daemon: serves any number of
//                        concurrent clients and remote workers on one
//                        port, keeps its fitness cache warm between jobs,
//                        schedules interactive work ahead of bulk
//                        codesign, and sheds overload as
//                        "unavailable" results. Port 0 picks an ephemeral
//                        port (printed to stderr). Runs until SIGINT/
//                        SIGTERM; --threads sets the executor pool,
//                        --queue-capacity the admission bound.
//   --connect HOST:PORT  client mode: the batch runs on the daemon instead
//                        of local threads or workers; --journal/--resume
//                        and --out behave as in batch mode (results
//                        byte-identical to a local run, written once the
//                        batch is complete). With --worker: donate this
//                        process to the daemon as a remote worker instead;
//                        reconnects with backoff until the daemon is gone.
//   --priority CLASS     client mode: default scheduling class for this
//                        stream's jobs ("interactive" or "bulk"; a spec's
//                        own priority field wins)
//   --queue-capacity N   daemon admission bound (default 64)
//
// Each mode reads only the flags its --help line lists; any other exits 2
// with a line naming the flag and the mode.
//
// Exit status (batch and client mode): 0 when every job ran OK, 3 when some
// jobs failed or were stopped (their Status is in the results file), 2 on
// usage errors (a numeric flag must parse whole) or I/O errors,
// 4 when a SIGINT/SIGTERM drained the batch early (results are complete
// lines — unstarted jobs report "cancelled" — and, with --journal, the run
// is resumable with --resume) or, with --journal, when the daemon did not
// answer every job (nothing is written; --resume finishes the batch). A
// client has no drain: a signal kills it, and its journal keeps what
// arrived. SIGPIPE is ignored: a closed downstream pipe surfaces as a
// clean write error on stderr, not a mid-batch kill.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include <chrono>
#include <thread>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/fitness_cache.hpp"
#include "net/framed.hpp"
#include "svc/daemon.hpp"
#include "svc/jobd.hpp"
#include "svc/run_job.hpp"
#include "batch_flags.hpp"
#include "flags.hpp"
#include "output_file.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--in PATH] [--out PATH] [--threads N | "
               "--workers N [--stall-timeout-s S] [--max-attempts K]] "
               "[--deadline-s S] [--cache-dir PATH] [--cache-mb N] "
               "[--journal DIR] [--resume] [--trace PATH]\n"
               "       %s --listen HOST:PORT [--threads N] "
               "[--queue-capacity N] [--deadline-s S] [--max-attempts K] "
               "[--cache-dir PATH] [--cache-mb N]\n"
               "       %s --connect HOST:PORT [--in PATH] [--out PATH] "
               "[--journal DIR] [--resume] [--priority interactive|bulk]\n"
               "       %s --worker [--connect HOST:PORT] [--cache-dir PATH] "
               "[--cache-mb N]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

/// SIGINT/SIGTERM raise this; the daemon loop polls it.
volatile std::sig_atomic_t g_stop_requested = 0;

void request_stop(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  // A closed downstream pipe (e.g. `mfdft_jobd | head`) must surface as a
  // stream write failure, not kill the process mid-batch.
  std::signal(SIGPIPE, SIG_IGN);

  std::string in_path;
  std::string out_path;
  std::string trace_path;
  std::string listen_spec;
  mfd::svc::DaemonOptions daemon_options;
  bool worker_mode = false;
  mfd::tools::BatchFlags batch;
  mfd::svc::JobdOptions& options = batch.options;

  mfd::tools::Flags flags(argc, argv);
  while (flags.next()) {
    const std::string arg = flags.arg();
    bool ok = true;
    if (arg == "--in") {
      ok = flags.take(&in_path);
    } else if (arg == "--out") {
      ok = flags.take(&out_path);
    } else if (arg == "--stall-timeout-s") {
      ok = flags.take(&options.stall_timeout_s);
    } else if (arg == "--max-attempts") {
      ok = flags.take(&options.max_attempts);
    } else if (arg == "--deadline-s") {
      ok = flags.take(&options.deadline_s);
    } else if (arg == "--trace") {
      ok = flags.take(&trace_path);
    } else if (arg == "--listen") {
      ok = flags.take(&listen_spec);
    } else if (arg == "--queue-capacity") {
      ok = flags.take(&daemon_options.queue_capacity);
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!batch.take(flags, arg, &ok)) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  if (!listen_spec.empty() && !batch.connect.empty()) {
    std::fprintf(stderr, "%s: --listen and --connect are mutually exclusive\n",
                 argv[0]);
    return 2;
  }
  const bool flags_read =
      !listen_spec.empty()
          ? flags.refuse("--listen", {"--in", "--out", "--workers", "--worker",
                                      "--stall-timeout-s", "--journal",
                                      "--resume", "--trace", "--priority"})
      : worker_mode
          ? flags.refuse("--worker", {"--in", "--out", "--threads", "--workers",
                                      "--stall-timeout-s", "--max-attempts",
                                      "--deadline-s", "--journal", "--resume",
                                      "--trace", "--priority",
                                      "--queue-capacity"})
      : !batch.connect.empty()
          ? flags.refuse("--connect", {"--threads", "--workers", "--trace",
                                       "--stall-timeout-s", "--max-attempts",
                                       "--deadline-s", "--cache-dir",
                                       "--cache-mb", "--queue-capacity"})
      : options.workers > 0
          ? flags.refuse("--workers", {"--threads", "--priority",
                                       "--queue-capacity"})
          : flags.refuse("batch", {"--stall-timeout-s", "--max-attempts",
                                   "--priority", "--queue-capacity"});
  if (!flags_read) return 2;
  if (!batch.check(argv[0], mfd::tools::self_path(argv[0]))) return 2;

  if (!listen_spec.empty()) {
    // Daemon mode: serve clients and remote workers until SIGINT/SIGTERM.
    mfd::net::Endpoint endpoint;
    if (!mfd::tools::parse_endpoint(argv[0], "--listen", listen_spec,
                                    &endpoint)) {
      return 2;
    }
    daemon_options.host = endpoint.host;
    daemon_options.port = endpoint.port;
    // `--threads 0` keeps its CLI meaning (hardware concurrency); the
    // DaemonOptions field itself uses 0 = "remote workers only".
    daemon_options.executors =
        options.threads == 0 ? mfd::ThreadPool::hardware_threads()
                             : options.threads;
    daemon_options.default_deadline_s = options.deadline_s;
    daemon_options.cache_dir = options.cache_dir;
    daemon_options.cache_mb = options.cache_mb;
    daemon_options.max_attempts = options.max_attempts;
    mfd::svc::JobDaemon daemon(daemon_options);
    const mfd::Status started = daemon.start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], started.to_string().c_str());
      return 2;
    }
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
    std::fprintf(stderr, "mfdft_jobd: listening on %s:%d\n",
                 endpoint.host.c_str(), daemon.port());
    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    daemon.stop();
    std::fprintf(stderr, "mfdft_jobd: daemon stopped: %s\n",
                 daemon.metrics().summary().c_str());
    return 0;
  }

  if (!batch.resolve_connect(argv[0])) return 2;
  if (worker_mode) {
    // Worker-side cache: each worker owns one, warm-loaded from the shared
    // --cache-dir (if any) and persisted at EOF — cross-process sharing is
    // disk-mediated.
    const std::unique_ptr<mfd::core::FitnessCache> cache =
        mfd::svc::open_fitness_cache(options.cache_dir, options.cache_mb);
    if (options.connect) {
      // Remote worker: donate this process to the daemon's pool.
      const int served =
          mfd::svc::run_daemon_worker(*options.connect, cache.get());
      std::fprintf(stderr, "mfdft_jobd: remote worker served %d connections\n",
                   served);
      return served > 0 ? 0 : 2;
    }
    mfd::net::FramedConnection requests(STDIN_FILENO);
    mfd::net::FramedConnection results(STDOUT_FILENO);
    const int rc =
        mfd::svc::run_worker(requests, results, nullptr, cache.get());
    if (rc != 0) {
      const std::string why = results.last_error().empty()
                                  ? requests.loss_detail()
                                  : results.last_error();
      std::fprintf(stderr, "%s: worker: %s\n", argv[0], why.c_str());
    }
    return rc;
  }

  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file) {
      std::fprintf(stderr, "%s: cannot open input '%s'\n", argv[0],
                   in_path.c_str());
      return 2;
    }
  }
  mfd::tools::OutputFile out_file;
  mfd::tools::OutputFile trace_file;
  if (!out_file.open(argv[0], out_path, /*stdout_if_empty=*/true) ||
      !trace_file.open(argv[0], trace_path)) {
    return 2;
  }
  std::optional<mfd::JsonlTraceSink> trace_sink;
  std::unique_ptr<mfd::Tracer> tracer;
  if (trace_file) {
    trace_sink.emplace(trace_file.stream());
    tracer = std::make_unique<mfd::Tracer>(&*trace_sink);
    options.tracer = tracer.get();
  }

  std::istream& in = in_path.empty() ? std::cin : in_file;
  const mfd::svc::JobdReport report = batch.run_draining(
      [&] { return mfd::svc::run_jobd(in, out_file.stream(), options); });
  if (!report.journal_status.ok()) {
    std::fprintf(stderr, "%s: journal: %s\n", argv[0],
                 report.journal_status.to_string().c_str());
    return batch.unfinished_status(report);
  }
  if (!report.connection.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 report.connection.to_string().c_str());
    return batch.unfinished_status(report);
  }
  // A failed write means results were lost downstream (a file error or a
  // closed pipe): fail loudly rather than exit 0 on a truncated file.
  if (!out_file.finish(argv[0]) || !trace_file.finish(argv[0])) return 2;

  std::string journal_summary;
  if (!options.journal_dir.empty()) {
    journal_summary =
        ", journal " + std::to_string(report.journal_appended) + " appended";
  }
  std::fprintf(stderr, "mfdft_jobd: %s%s\n", report.metrics.summary().c_str(),
               journal_summary.c_str());
  if (!report.cache_persist.ok()) {
    std::fprintf(stderr, "mfdft_jobd: cache persist failed: %s\n",
                 report.cache_persist.to_string().c_str());
  }
  return mfd::tools::BatchFlags::finished_status(
      report, "mfdft_jobd: batch interrupted");
}
