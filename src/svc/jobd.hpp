// Stream-driven JSONL job driver (the core of the mfdft_jobd tool).
//
// run_jobd() is the one durable-batch path. It reads one JobSpec JSON
// object per input line and writes one JobResult JSON object per line in
// *input order*: line i of the output always answers line i of the input,
// even for malformed lines (those come back as kInvalidOptions with stage
// "parse" instead of aborting the batch). With a journal (svc/journal.hpp)
// it adopts an earlier run's records, journals every result as it arrives,
// and merges adopted and fresh lines in batch order. The slots still to run
// go to one of two runners:
//
//   - run_batch(): the execution core (svc/executor.hpp) on in-process
//     threads or, with workers > 0, crash-isolated worker subprocesses;
//   - one daemon connection (svc/daemon.hpp) when JobdOptions::connect is
//     set: the input lines go out verbatim, adopted ones blanked, so the
//     daemon's "line N" numbers and parse errors match a local run.
//
// Output is written only once every slot has its answer, and every line is
// assembled whole, so a deadline, a cancel or a lost daemon can never leave
// a partial JSONL line behind.
//
// run_worker() is the other side of the worker wire: the loop behind
// `mfdft_jobd --worker` and a remote worker, reading one request envelope
// per line and writing one JobResult line per job through
// net::FramedConnection, the framing the supervising side speaks, with the
// common/fault_inject points threaded through so crash recovery is
// testable hermetically.
//
// run_jobd() takes streams, not paths, so tests drive it end-to-end with
// stringstreams; the tools/ binary is a thin flag parser around both.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/run_control.hpp"
#include "common/trace.hpp"
#include "core/fitness_cache.hpp"
#include "net/framed.hpp"
#include "svc/job.hpp"

namespace mfd {
class FaultInjectPlan;
}  // namespace mfd

namespace mfd::svc {

/// Where a batch goes when it runs on a daemon (`mfdft_jobd --listen`).
struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Default scheduling class for this client's jobs ("interactive",
  /// "bulk", or "" = derive per spec); a spec's own priority field wins.
  std::string priority;
  /// Reconnect-with-backoff: connection attempts before giving up, with
  /// base_s * 2^k sleeps (capped at max_s) between consecutive failures.
  int connect_attempts = 10;
  double connect_base_s = 0.05;
  double connect_max_s = 1.0;
};

struct JobdOptions {
  /// Job-level workers, including the calling thread (0 = hardware
  /// concurrency, at most kMaxThreads). Output bytes are identical for
  /// every value.
  int threads = 1;
  /// Default per-job deadline in seconds applied to jobs whose spec has
  /// none (0 = no default, at most kMaxDeadlineS).
  double deadline_s = 0.0;
  /// Optional tracer: one span per job plus service-level counters at the
  /// end of the batch. Borrowed.
  Tracer* tracer = nullptr;

  /// Crash-isolated worker subprocesses (0 = in-process execution over
  /// `threads`; at most kMaxThreads). With workers > 0 the batch runs on
  /// worker-pipe executors spawning `worker_command` children; output bytes
  /// for crash-free runs are identical to every in-process thread count.
  int workers = 0;
  std::vector<std::string> worker_command;
  /// Per-job watchdog: a worker that has produced no result this many
  /// seconds after taking a job is killed and the job requeued (0 = off).
  double stall_timeout_s = 60.0;
  /// Losses of a job to crashed workers before it is quarantined as
  /// kUnavailable (>= 1).
  int max_attempts = 3;
  /// Fault-injection plan ("" = MFDFT_FAULT_INJECT): forwarded to workers,
  /// and the driver's own chaos points (daemon_crash, journal_torn_tail,
  /// conn_drop) fire from it.
  std::string fault_inject;

  /// The codesign jobs of an in-process batch share one fitness cache;
  /// worker batches share through cache_dir instead. Output bytes equal
  /// those of per-job private caches: only wall time and the ServiceMetrics
  /// cache_* counters differ. cache_dir is the persistent tier ("" =
  /// in-memory only): loaded warm at startup, appended to when the batch
  /// ends. With workers > 0 the flags are forwarded so each worker loads
  /// and persists the same tier.
  std::string cache_dir;
  /// In-memory cache budget in MiB (0 = unbounded).
  int cache_mb = 256;

  /// Durable execution (see svc/journal.hpp): directory of the crash-safe
  /// result journal ("" = no journal). Every completed job with a
  /// deterministic outcome is appended and fsync'd as it arrives, so a
  /// crashed driver or a lost daemon loses at most the in-flight jobs.
  std::string journal_dir;
  /// With a journal_dir: adopt valid records from an earlier interrupted
  /// run (verified against this batch's spec-line hashes) and re-run only
  /// the incomplete jobs. The emitted results.jsonl is byte-identical to
  /// an uninterrupted run. false = discard any existing journal.
  bool resume = false;
  /// Batch-level drain control (borrowed, may be null). When it stops
  /// mid-batch — a SIGTERM/SIGINT handler typically — in-process jobs in
  /// flight are cancelled through their RunControl, jobs already on a
  /// worker process run to completion, unstarted jobs come back
  /// kCancelled, and the report is marked interrupted; journaled results
  /// stay durable for a --resume rerun. Ignored with `connect`.
  const RunControl* control = nullptr;

  /// Run the batch on a daemon instead of the local execution core (then
  /// threads, workers and the cache settings are the daemon's business). A
  /// conn_drop@job=N fault shuts the connection down right after the Nth
  /// result arrived (and was journaled), like a real partition.
  std::optional<ClientOptions> connect;

  /// All violations in one Status (stage "jobd"), CodesignOptions style.
  [[nodiscard]] Status validate() const;
};

/// Batch summary.
struct JobdReport {
  /// The whole batch: the jobs this run executed, the parse-error slots
  /// (counted in parse_errors and failed) and the journal-adopted ones
  /// (counted in jobs_resumed), each tallied once, and the batch's wall
  /// time.
  ServiceMetrics metrics;
  /// Outcome of writing the persistent cache segment at the end of the
  /// batch (kOk when no cache_dir was configured or nothing was new).
  Status cache_persist = Status::Ok();
  /// Journal health: failed when the journal directory could not be opened
  /// (the batch does not run — durability was requested and cannot be
  /// provided) or when a record write failed mid-batch.
  Status journal_status = Status::Ok();
  /// Records appended to the journal by this run.
  int journal_appended = 0;
  /// With `connect`: failed when no connection could be made
  /// (kUnavailable) or the daemon did not answer every job
  /// (kInternalError). Nothing is written to `out` then; the journal keeps
  /// every result that arrived.
  Status connection = Status::Ok();
  /// True when the batch control stopped the run before every job executed
  /// (tools exit with a typed partial status instead of 0/3).
  bool interrupted = false;
  /// Per-job wall time in input order (campaign/bench reporting only —
  /// never serialized into results), as the executing side measured it;
  /// adopted, parse-error and daemon-run slots are 0.
  std::vector<double> job_run_seconds;
};

/// Runs specs[i] for every i in `slots` on the execution core — worker
/// subprocesses when options.workers > 0, in-process threads otherwise —
/// and stores each result in results[i] (index i), which must have room.
/// `cache` (borrowed, may be null) is shared by in-process jobs. Every slot
/// is admitted before any runs, so in-process jobs over one chip and seed
/// generate its multiport suite once, as far as the executors' timing
/// allows (suites_reused counts the jobs served a stored one). `on_result`
/// (may be empty) sees every final result once, on an executor thread.
/// Blocks until every listed job has a result and returns the core's
/// metrics of the batch; throws mfd::Error when the options are invalid.
ServiceMetrics run_batch(const std::vector<JobSpec>& specs,
                         const std::vector<int>& slots,
                         std::vector<JobResult>& results,
                         const JobdOptions& options = {},
                         core::FitnessCache* cache = nullptr,
                         const std::function<void(const JobResult&)>&
                             on_result = {});

/// Runs every job on `in` (JSONL, one JobSpec per line) and writes one
/// JobResult JSON line per job to `out`, in input order, once the batch is
/// complete. `results` (may be null) receives the results themselves, in
/// the same order.
JobdReport run_jobd(std::istream& in, std::ostream& out,
                    const JobdOptions& options = {},
                    std::vector<JobResult>* results = nullptr);

/// Worker-mode loop: reads one request envelope
/// ({"job":N,"attempt":A,"spec":{...}}) per line of `requests`, runs the
/// job in-process and writes one JobResult line to `results`, until EOF.
/// The two may be one connection (a socket). Malformed envelopes answer
/// with a kInternalError result instead of exiting, keeping the lockstep
/// protocol intact. `plan` overrides the MFDFT_FAULT_INJECT environment
/// plan (tests); injected faults abort/stall/truncate exactly as specified.
/// `cache` is the worker's fitness cache (borrowed, may be null), shared
/// between its jobs and persisted when the loop ends. Returns 0 on a clean
/// EOF; 1 when the requests broke off (a read error, a line over the cap,
/// a torn last line: see requests.loss_detail()) or a result could not be
/// written (the driving process is gone: see results.last_error()).
int run_worker(net::FramedConnection& requests, net::FramedConnection& results,
               const FaultInjectPlan* plan = nullptr,
               core::FitnessCache* cache = nullptr);

}  // namespace mfd::svc
