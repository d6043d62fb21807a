// Long-lived networked job daemon (`mfdft_jobd --listen`).
//
// run_jobd() serves one batch from one stream and exits. JobDaemon keeps
// the same JSONL request/result envelope alive across connections: it
// binds one TCP port, accepts any number of concurrent peers, and stays
// warm between jobs — one shared core::FitnessCache and one svc::JobContext
// (parsed chips/assays) serve every job the daemon ever runs, so a second
// client's codesign sweep starts from the first client's evaluations.
//
// One listen port, two peer roles, told apart by a one-line JSON hello:
//
//   {"role":"client","priority":"interactive"}   then raw JobSpec JSONL
//   {"role":"worker"}                            then request envelopes
//
// A *client* streams the same bytes it would pipe into run_jobd() and gets
// the same bytes back: line i of its result stream answers line i of its
// input (malformed lines included, with run_jobd's exact "line N: ..."
// parse messages), byte-identical to a local run — regardless of transport,
// executor count, remote workers, or queue discipline — because results are
// slotted by each client's own line index before they touch the socket.
// The client side is run_jobd() itself with JobdOptions::connect set
// (svc/jobd.hpp): the same journal, resume and ordered merge as a local
// batch, with one daemon connection running the slots still to run. The
// daemon stays stateless; resume is entirely client-side.
//
// A *worker* (`mfdft_jobd --connect --worker`, possibly on another
// machine) donates its process to the daemon: it becomes a remote-worker
// executor of the daemon's ExecutionCore (svc/executor.hpp), driven with
// the same {"job":N,"attempt":A,"spec":{...}} envelope worker pipes use. A
// worker that vanishes mid-job has its job requeued with backoff and, after
// max_attempts losses, quarantined as kUnavailable.
//
// The daemon is a Listener, the core, and one I/O thread. The I/O thread
// blocks in poll() on the listening socket, every open connection and a
// wake fd; it accepts connections, reads hellos and spec lines, and admits
// each job into the core's priority queue (interactive work ahead of bulk
// codesign, aging keeps bulk from starving) or, when the queue is full,
// *sheds* it with an immediate kUnavailable (stage "admission") result. No
// connection owns a thread, and reading never blocks on admission, which
// also rules out the client<->daemon write deadlock a blocking push could
// cause. Executors queue each client's results in its session and wake
// the I/O thread, which alone writes to client sockets, never blocking: a
// client that stops reading is no longer read once its unsent results pass
// a cap, and delays nobody else.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "core/fitness_cache.hpp"
#include "svc/executor.hpp"

namespace mfd::svc {

/// The daemon reports the service's one counter model (svc/job.hpp).
using DaemonMetrics = ServiceMetrics;

struct DaemonOptions {
  /// Bind address; port 0 picks a kernel-assigned ephemeral port (the
  /// bound one is reported by JobDaemon::port()).
  std::string host = "127.0.0.1";
  int port = 0;

  /// In-process executor threads, at most kMaxThreads. 0 means *none*: the
  /// daemon serves exclusively through remote workers (`mfdft_jobd
  /// --connect`), which is how a coordinator node with no compute of its
  /// own is configured.
  int executors = 1;

  /// Shared priority queue: capacity bounds admitted-but-unstarted jobs
  /// across all clients (beyond it, jobs shed as kUnavailable);
  /// age_promote_s is the bulk-starvation bound (see priority_queue.hpp).
  std::size_t queue_capacity = 64;
  double age_promote_s = 5.0;

  /// Deadline applied to jobs whose spec has none (0 = none).
  double default_deadline_s = 0.0;

  /// Warm fitness cache shared by every job the daemon runs: optional
  /// persistent tier directory ("" = in-memory only; loaded at start(),
  /// persisted at stop()) and in-memory budget in MiB (0 = unbounded).
  std::string cache_dir;
  int cache_mb = 256;

  /// Remote-worker loss policy (see svc/executor.hpp): losses per job
  /// before quarantine, and the deterministic requeue backoff.
  int max_attempts = 3;
  double backoff_base_s = 0.05;
  double backoff_max_s = 2.0;

  /// All violations in one Status, CodesignOptions::validate() style.
  [[nodiscard]] Status validate() const;
};

class JobDaemon {
 public:
  explicit JobDaemon(DaemonOptions options = {});
  /// stop()s if still running.
  ~JobDaemon();

  JobDaemon(const JobDaemon&) = delete;
  JobDaemon& operator=(const JobDaemon&) = delete;

  /// Binds the port and starts the I/O thread plus executor threads.
  /// Fails (kUnavailable, stage "daemon") when the port cannot be bound.
  [[nodiscard]] Status start();

  /// Graceful shutdown: stops accepting and reading (every open client
  /// stream ends where it is), drains admitted jobs through the executors,
  /// sheds what no executor can run as kUnavailable, joins every thread,
  /// and persists the fitness cache. Idempotent.
  void stop();

  /// The bound port (only meaningful after a successful start()).
  [[nodiscard]] int port() const;

  /// Its execution core's metrics: every result delivered to a client, the
  /// admission, session and worker counters, and the shared cache's.
  [[nodiscard]] ServiceMetrics metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Donates this process to a daemon as a remote worker — the networked
/// `mfdft_jobd --worker`. Connects with reconnect-backoff, sends the
/// worker hello, then serves run_worker() over the socket until the daemon
/// hangs up; reconnects and keeps serving until a connection cannot be
/// made within `connect_attempts` tries (a stopped daemon ends the loop).
/// `cache` is the worker's fitness cache (borrowed, may be null).
/// Returns the number of connections served.
int run_daemon_worker(const std::string& host, int port, int connect_attempts,
                      double connect_base_s, double connect_max_s,
                      core::FitnessCache* cache = nullptr);

}  // namespace mfd::svc
