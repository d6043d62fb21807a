// The job-execution core shared by batches, worker processes and the
// daemon.
//
// Every way the service runs jobs is the same loop: tasks enter one
// svc::PriorityQueue (interactive work ahead of bulk codesign, with aging)
// and executor threads drain it. An executor is one of three kinds:
//
//   - an in-process slot runs run_job() against the core's JobContext and
//     shared fitness cache, under a per-job RunControl armed with the job's
//     deadline and linked to the batch's drain control;
//   - a worker-pipe slot ships each task to an `mfdft_jobd --worker`
//     subprocess, kills it when no result arrives within the stall timeout,
//     and respawns it when it dies;
//   - a remote worker ships each task over the TCP connection a
//     `mfdft_jobd --connect --worker` process opened to the daemon.
//
// Both out-of-process kinds speak the {"job":N,"attempt":A,"spec":{...}}
// envelope and both can lose a job. One retry policy serves them: a job
// lost in flight is requeued after backoff_delay_s(), and after
// max_attempts losses it is quarantined as kUnavailable, stage "worker".
// A request that never reached the worker burns no attempt. Worker-pipe
// slots fall back to in-process execution only when no worker process is
// left alive.
//
// Results go to each task's ResultSink: a batch's result slots (run_batch
// in svc/jobd.hpp) or a daemon client's ordered stream (svc/daemon.hpp).
// Tasks hold their spec by pointer, so a batch is never copied.
//
// The core owns the one JobContext (svc/run_job.hpp) that stores anything:
// a task's claims last from submit() until its result is delivered or
// close() hands it back, so a core holds no chip or suite once answered.
//
// The core keeps its owner's ServiceMetrics (svc/job.hpp). It tallies
// every result before delivering it, the ones its owner answers without
// queueing them (deliver()) included, so no counter lags a result that a
// client has already read.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/run_control.hpp"
#include "common/trace.hpp"
#include "core/fitness_cache.hpp"
#include "net/framed.hpp"
#include "svc/job.hpp"
#include "svc/priority_queue.hpp"
#include "svc/run_job.hpp"
#include "svc/worker_process.hpp"

namespace mfd::svc {

/// Where finished jobs go.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// Called once per task with its final result (`index` set to the
  /// task's). May run on any executor thread.
  virtual void deliver(JobResult result) = 0;
};

/// One queued job.
struct Task {
  /// The spec; a batch's tasks point into the batch without owning it.
  std::shared_ptr<const JobSpec> spec;
  std::shared_ptr<ResultSink> sink;
  /// Position in the sink: the envelope's "job" and the result's "index".
  int index = 0;
  int job_class = 0;
  /// Losses so far (the envelope's "attempt").
  int attempt = 0;
  std::chrono::steady_clock::time_point enqueued =
      std::chrono::steady_clock::now();
};

/// Deterministic requeue delay before attempt `attempt` (>= 1) of a job:
/// 0.05 s * 2^(attempt-1) capped at 2 s, jittered to [0.5, 1) of that by a
/// hash of (seed, job, attempt).
[[nodiscard]] double backoff_delay_s(std::uint64_t seed, int job, int attempt);

/// Bulk jobs wait at most about this long behind interactive ones (see
/// priority_queue.hpp): on the daemon, and in a batch run by more than one
/// executor.
inline constexpr double kBulkAgePromoteS = 5.0;

class ExecutionCore {
 public:
  /// What the owner of a core (a batch or the daemon) decides for its jobs.
  struct Policy {
    /// Queued tasks beyond which submit() refuses; bulk aging (see
    /// priority_queue.hpp).
    std::size_t capacity = 1;
    double age_promote_s = 0.0;
    /// Applied to specs without a deadline (0 = none).
    double default_deadline_s = 0.0;
    /// Worker-pipe watchdog (0 = off); losses per job before quarantine.
    double stall_timeout_s = 0.0;
    int max_attempts = 3;
    /// A batch's drain control and tracer (borrowed, may be null).
    const RunControl* control = nullptr;
    Tracer* tracer = nullptr;
  };

  /// No executor runs until add_*() starts one. `cache` is borrowed, may
  /// be null, and serves in-process jobs only.
  ExecutionCore(const Policy& policy, core::FitnessCache* cache);
  /// close()s if still open.
  ~ExecutionCore();

  ExecutionCore(const ExecutionCore&) = delete;
  ExecutionCore& operator=(const ExecutionCore&) = delete;

  /// Admits a task without blocking, claims its artifacts and counts it in
  /// jobs_admitted and its class's counter; false when the queue is full
  /// or closed (the caller sheds it).
  bool submit(const Task& task);

  /// Starts `count` in-process executor threads.
  void add_in_process(int count);
  /// Starts `count` worker-pipe executors running `command`. A worker that
  /// fails to spawn counts in workers_lost; when none starts, one
  /// in-process executor runs the queue instead.
  void add_workers(const WorkerCommand& command, int count);
  /// Starts an executor serving the remote worker on `conn`, whose hello
  /// was already read. Reaps executors of workers that hung up.
  void add_remote(net::FramedConnection conn);

  /// Stops admission, lets the executors drain the queue, joins them, and
  /// returns the tasks nobody could run (no executor was left). Idempotent.
  std::vector<Task> close();

  /// Tallies `result` and hands it to `sink`: how every result leaves the
  /// core, including the ones that never entered the queue (a parse error,
  /// a shed).
  void deliver(ResultSink& sink, JobResult result);

  /// Applies `fn` to the metrics under their lock: the counters the owner
  /// keeps (parse errors, sheds, sessions).
  template <typename Fn>
  void count(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    fn(metrics_);
  }

  /// A snapshot, with wall_seconds and the cache counters measured since
  /// the core was built, and the context's suites_reused.
  [[nodiscard]] ServiceMetrics metrics() const;

  /// The artifacts the admitted jobs claim.
  [[nodiscard]] const JobContext& context() const { return context_; }

 private:
  struct Link;
  struct Slot {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  /// How shipping one task to another process ended.
  enum class Shipment {
    kAnswered,  ///< The worker's result arrived.
    kUnsent,    ///< The request never reached the worker.
    kLost,      ///< The worker died with the job (EOF, read error).
    kWedged,    ///< The worker stalled or broke the protocol; kill it.
  };

  /// Runs drain(link) on a new thread (null = in-process). A worker-pipe
  /// executor goes on in-process when its process was the last one alive.
  void start(std::unique_ptr<Link> link);
  /// Runs tasks until the queue closes, or until `link` dies.
  void drain(Link* link);
  Shipment ship(Link& link, const Task& task, JobResult* result,
                std::string* detail);
  JobResult run_here(const Task& task);
  void finish(const Task& task, JobResult result,
              std::chrono::steady_clock::time_point started);
  /// The retry policy: a job lost in flight is requeued after backoff, or
  /// quarantined once it was lost max_attempts times.
  void lose(Task task, bool burned, const std::string& detail,
            const Link& link);
  void quarantine(const Task& task, const std::string& detail,
                  const Link& link);

  const Policy policy_;
  PriorityQueue<Task> queue_;
  core::FitnessCache* cache_ = nullptr;
  JobContext context_;
  const std::chrono::steady_clock::time_point built_ =
      std::chrono::steady_clock::now();
  const core::FitnessCacheStats cache_built_;

  /// Worker-pipe executors whose process is still alive.
  std::atomic<int> pipes_alive_{0};
  std::mutex slots_mutex_;
  std::list<Slot> slots_;
  bool closed_ = false;

  mutable std::mutex metrics_mutex_;
  ServiceMetrics metrics_;
};

}  // namespace mfd::svc
