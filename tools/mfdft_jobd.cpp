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
//   --stall-timeout-s S  per-job watchdog in worker mode (0 = off)
//   --max-attempts K   attempts per job before quarantine (worker mode)
//   --deadline-s S     default per-job deadline for jobs that set none
//   --cache-dir PATH   persistent fitness-cache directory: loaded warm at
//                      startup, appended to at exit, so repeated batches
//                      over the same chips skip recomputed evaluations
//                      (results are byte-identical either way)
//   --cache-mb N       in-memory fitness-cache budget in MiB (default 256,
//                      0 = unbounded)
//   --no-shared-cache  give every job a private cache (disables cross-job
//                      sharing; useful for timing comparisons)
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
//                      line per job on stdout; --cache-dir/--cache-mb are
//                      honored per worker)
//
// Networked modes (same JSONL protocol over TCP — see svc/daemon.hpp):
//
//   --listen HOST:PORT   long-lived daemon: serves any number of
//                        concurrent clients and remote workers on one
//                        port, stays warm (shared fitness cache + parsed
//                        chips) between jobs, schedules interactive work
//                        ahead of bulk codesign, and sheds overload as
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
#include <vector>

#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/run_control.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/fitness_cache.hpp"
#include "net/socket.hpp"
#include "svc/daemon.hpp"
#include "svc/jobd.hpp"
#include "svc/run_job.hpp"
#include "flags.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--in PATH] [--out PATH] [--threads N] "
               "[--workers N] [--stall-timeout-s S] [--max-attempts K] "
               "[--deadline-s S] [--cache-dir PATH] [--cache-mb N] "
               "[--no-shared-cache] [--journal DIR] [--resume] "
               "[--trace PATH] [--worker]\n"
               "       %s --listen HOST:PORT [--threads N] "
               "[--queue-capacity N] [--deadline-s S] [--cache-dir PATH]\n"
               "       %s --connect HOST:PORT [--in PATH] [--out PATH] "
               "[--journal DIR] [--resume] [--priority interactive|bulk] "
               "[--worker]\n",
               argv0, argv0, argv0);
  return 2;
}

/// SIGINT/SIGTERM raise this; the daemon loop polls it.
volatile std::sig_atomic_t g_stop_requested = 0;

void request_stop(int) { g_stop_requested = 1; }

/// Batch-mode drain control: request_cancel() is a single atomic store, so
/// the handler may call it directly. The running batch stops admitting
/// jobs, completes unstarted ones as "cancelled", and exits 4.
mfd::RunControl g_batch_control;

void request_drain(int) { g_batch_control.request_cancel(); }

/// Path of this binary (workers are spawned from the same executable);
/// falls back to argv[0] when /proc is unavailable.
std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return std::string(buffer);
  }
  return std::string(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  // A closed downstream pipe (e.g. `mfdft_jobd | head`) must surface as a
  // stream write failure, not kill the process mid-batch.
  std::signal(SIGPIPE, SIG_IGN);

  std::string in_path;
  std::string out_path;
  std::string trace_path;
  std::string listen_spec;
  std::string connect_spec;
  std::string priority;
  mfd::svc::DaemonOptions daemon_options;
  bool worker_mode = false;
  mfd::svc::JobdOptions options;

  mfd::tools::Flags flags(argc, argv);
  while (flags.next()) {
    const std::string arg = flags.arg();
    bool ok = true;
    if (arg == "--in") {
      ok = flags.take(&in_path);
    } else if (arg == "--out") {
      ok = flags.take(&out_path);
    } else if (arg == "--threads") {
      ok = flags.take(&options.threads);
    } else if (arg == "--workers") {
      ok = flags.take(&options.workers);
    } else if (arg == "--stall-timeout-s") {
      ok = flags.take(&options.stall_timeout_s);
    } else if (arg == "--max-attempts") {
      ok = flags.take(&options.max_attempts);
    } else if (arg == "--deadline-s") {
      ok = flags.take(&options.deadline_s);
    } else if (arg == "--cache-dir") {
      ok = flags.take(&options.cache_dir);
    } else if (arg == "--cache-mb") {
      ok = flags.take(&options.cache_mb);
    } else if (arg == "--no-shared-cache") {
      options.shared_cache = false;
    } else if (arg == "--journal") {
      ok = flags.take(&options.journal_dir);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--trace") {
      ok = flags.take(&trace_path);
    } else if (arg == "--listen") {
      ok = flags.take(&listen_spec);
    } else if (arg == "--connect") {
      ok = flags.take(&connect_spec);
    } else if (arg == "--priority") {
      ok = flags.take(&priority);
    } else if (arg == "--queue-capacity") {
      ok = flags.take(&daemon_options.queue_capacity);
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  if (!listen_spec.empty() && !connect_spec.empty()) {
    std::fprintf(stderr, "%s: --listen and --connect are mutually exclusive\n",
                 argv[0]);
    return 2;
  }
  if (options.resume && options.journal_dir.empty()) {
    std::fprintf(stderr, "%s: --resume requires --journal DIR\n", argv[0]);
    return 2;
  }
  if (options.workers > 0) {
    options.worker_command = {self_path(argv[0]), "--worker"};
  }
  const mfd::Status valid = options.validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], valid.to_string().c_str());
    return 2;
  }

  if (!listen_spec.empty()) {
    // Daemon mode: serve clients and remote workers until SIGINT/SIGTERM.
    mfd::net::Endpoint endpoint;
    std::string parse_error;
    if (!mfd::net::parse_host_port(listen_spec, &endpoint, &parse_error)) {
      std::fprintf(stderr, "%s: bad --listen spec '%s': %s\n", argv[0],
                   listen_spec.c_str(), parse_error.c_str());
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

  if (!connect_spec.empty()) {
    mfd::net::Endpoint endpoint;
    std::string parse_error;
    if (!mfd::net::parse_host_port(connect_spec, &endpoint, &parse_error)) {
      std::fprintf(stderr, "%s: bad --connect spec '%s': %s\n", argv[0],
                   connect_spec.c_str(), parse_error.c_str());
      return 2;
    }
    if (worker_mode) {
      // Remote worker: donate this process to the daemon's pool.
      std::unique_ptr<mfd::core::FitnessCache> cache;
      if (options.shared_cache) {
        cache = mfd::svc::open_fitness_cache(options.cache_dir,
                                             options.cache_mb);
      }
      const int served = mfd::svc::run_daemon_worker(
          endpoint.host, endpoint.port, /*connect_attempts=*/10,
          /*connect_base_s=*/0.05, /*connect_max_s=*/1.0, cache.get());
      std::fprintf(stderr, "mfdft_jobd: remote worker served %d connections\n",
                   served);
      return served > 0 ? 0 : 2;
    }
    // Client mode: the batch runs on the daemon.
    options.connect =
        mfd::svc::ClientOptions{endpoint.host, endpoint.port, priority};
  } else if (worker_mode) {
    // Worker-side cache: each worker owns one, warm-loaded from the shared
    // --cache-dir (if any) and persisted at EOF — cross-process sharing is
    // disk-mediated.
    std::unique_ptr<mfd::core::FitnessCache> cache;
    if (options.shared_cache) {
      cache = mfd::svc::open_fitness_cache(options.cache_dir, options.cache_mb);
    }
    const int rc =
        mfd::svc::run_worker(std::cin, std::cout, nullptr, cache.get());
    if (rc != 0) {
      std::fprintf(stderr, "%s: worker: write to stdout failed\n", argv[0]);
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
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "%s: cannot open output '%s'\n", argv[0],
                   out_path.c_str());
      return 2;
    }
  }
  std::ofstream trace_file;
  std::optional<mfd::JsonlTraceSink> trace_sink;
  std::unique_ptr<mfd::Tracer> tracer;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "%s: cannot open trace '%s'\n", argv[0],
                   trace_path.c_str());
      return 2;
    }
    trace_sink.emplace(trace_file);
    tracer = std::make_unique<mfd::Tracer>(&*trace_sink);
    options.tracer = tracer.get();
  }

  std::istream& in = in_path.empty() ? std::cin : in_file;
  std::ostream& out = out_path.empty() ? std::cout : out_file;
  // Graceful drain of a local batch: SIGINT/SIGTERM stop admission,
  // complete unstarted jobs as "cancelled", keep the journal (if any)
  // consistent, and exit 4. A client is simply killed: its journal keeps
  // what arrived.
  if (!options.connect) {
    options.control = &g_batch_control;
    std::signal(SIGINT, request_drain);
    std::signal(SIGTERM, request_drain);
  }
  const mfd::svc::JobdReport report = mfd::svc::run_jobd(in, out, options);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (!report.journal_status.ok()) {
    std::fprintf(stderr, "%s: journal: %s\n", argv[0],
                 report.journal_status.to_string().c_str());
    return 2;
  }
  if (!report.connection.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 report.connection.to_string().c_str());
    // With a journal, everything that arrived is durable: the run is
    // resumable, which is exit 4, not a hard 2.
    return options.journal_dir.empty() ? 2 : 4;
  }
  // run_jobd flushes; a bad stream here means results were lost downstream
  // (file error or a closed pipe) — fail loudly rather than exit 0 on a
  // truncated results file.
  if (!out) {
    std::fprintf(stderr, "%s: write to '%s' failed; results are incomplete\n",
                 argv[0], out_path.empty() ? "<stdout>" : out_path.c_str());
    return 2;
  }

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
  if (report.interrupted) {
    std::fprintf(stderr,
                 "mfdft_jobd: batch interrupted; rerun with --journal/--resume "
                 "to finish the remaining jobs\n");
    return 4;
  }
  return report.metrics.jobs_ok == report.metrics.jobs_total ? 0 : 3;
}
