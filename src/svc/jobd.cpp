#include "svc/jobd.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "common/run_control.hpp"
#include "common/thread_pool.hpp"
#include "core/fitness_cache.hpp"
#include "net/framed.hpp"
#include "net/socket.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "svc/run_job.hpp"

namespace mfd::svc {

namespace {

/// A batch's result slots: each result lands in its slot and passes the
/// on_result hook; wait() returns once every task has a result.
class BatchSink : public ResultSink {
 public:
  BatchSink(std::vector<JobResult>& results,
            const std::function<void(const JobResult&)>& on_result,
            std::size_t tasks)
      : results_(results), on_result_(on_result), left_(tasks) {}

  void deliver(JobResult result) override {
    JobResult& slot = results_[static_cast<std::size_t>(result.index)];
    slot = std::move(result);
    if (on_result_) on_result_(slot);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--left_ == 0) done_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return left_ == 0; });
  }

 private:
  std::vector<JobResult>& results_;
  const std::function<void(const JobResult&)>& on_result_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t left_;
};

/// Who answers a batch slot: a runner, the parser, or the journal.
enum class Slot : char { kPending, kParseError, kAdopted };

/// A batch, one slot per non-blank input line.
struct Batch {
  std::vector<Slot> state;
  /// Default-constructed for a parse error.
  std::vector<JobSpec> specs;
  std::vector<JobResult> results;
  /// Each slot's output line, once it is answered.
  std::vector<std::string> bytes;
  /// Kept for a journal or a daemon: each slot's raw line and its input
  /// line number.
  std::vector<std::string> lines;
  std::vector<int> line_numbers;
};

/// The hook every answer passes: the result (index = its slot) and its
/// line bytes.
using Record = std::function<void(const JobResult&, std::string)>;

/// The daemon runner: one connection answers every slot not adopted. The
/// job lines go out at their input line numbers, adopted ones blanked, so
/// the daemon's "line N" numbers and its parse errors match a local run.
/// The daemon answers its non-blank lines in order, so arrival n answers
/// the n-th slot sent; a parse-error slot keeps its local answer. Each
/// pending arrival's bytes are kept, re-dumped only to patch an index that
/// a blanked line shifted, tallied into *metrics and recorded.
Status run_on_daemon(const ClientOptions& options, Batch& batch,
                     const Record& record, const FaultInjectPlan& faults,
                     ServiceMetrics* metrics) {
  std::vector<std::size_t> sent;
  for (std::size_t i = 0; i < batch.state.size(); ++i) {
    if (batch.state[i] != Slot::kAdopted) sent.push_back(i);
  }
  std::string error;
  const int fd = net::tcp_connect_backoff(
      options.host, options.port, options.connect_attempts,
      options.connect_base_s, options.connect_max_s, &error);
  if (fd < 0) return Status::Fail(Outcome::kUnavailable, "client", error);
  // Two connections over one socket (reader + dup'd writer) so the sender
  // thread and the result reader never share mutable state.
  net::FramedConnection reader(fd);
  net::FramedConnection writer(::dup(fd));
  Json hello = Json::object();
  hello.set("role", Json(std::string("client")));
  hello.set("priority", Json(options.priority));
  if (!writer.write_line(hello.dump())) {
    return Status::Fail(Outcome::kInternalError, "client",
                        "daemon hung up during hello: " + writer.last_error());
  }
  // Sender: every line, then half-close so the daemon knows the stream is
  // complete. It reads only the batch's lines and states.
  std::thread sender([&batch, &writer] {
    const std::string empty;
    bool ok = true;
    int line_number = 0;
    for (std::size_t i = 0; ok && i < batch.lines.size(); ++i) {
      while (ok && ++line_number < batch.line_numbers[i]) {
        ok = writer.write_line(empty);
      }
      ok = ok && writer.write_line(
                     batch.state[i] == Slot::kAdopted ? empty : batch.lines[i]);
    }
    writer.shutdown_write();
  });

  std::size_t arrivals = 0;
  std::string failure;
  std::string line;
  net::FramedConnection::ReadStatus status;
  while ((status = reader.read_line(&line)) ==
         net::FramedConnection::ReadStatus::kLine) {
    const std::size_t n = arrivals++;
    if (n == sent.size()) {
      failure = "daemon sent more results than jobs";
    } else if (batch.state[sent[n]] == Slot::kPending) {
      const int slot = static_cast<int>(sent[n]);
      try {
        JobResult result = JobResult::from_json(Json::parse(line));
        if (result.index != slot) {
          result.index = slot;
          line = result.to_json().dump();  // throws on a non-finite number
        }
        metrics->tally(result);
        batch.results[sent[n]] = std::move(result);
        record(batch.results[sent[n]], std::move(line));
      } catch (const std::exception& e) {
        failure = std::string("bad result line from the daemon: ") + e.what();
      }
    }
    if (failure.empty() &&
        faults.fires(FaultPoint::kConnDrop, static_cast<int>(n), 0)) {
      // Injected partition: kill the socket after this result was fully
      // delivered (journaled). A bare shutdown would read back as a clean
      // EOF, so the drop is typed here.
      failure = "daemon connection lost: injected conn_drop after " +
                std::to_string(arrivals) + " results";
    }
    if (!failure.empty()) {
      ::shutdown(reader.fd(), SHUT_RDWR);  // also ends a blocked sender
      break;
    }
  }
  sender.join();
  if (failure.empty() && (status == net::FramedConnection::ReadStatus::kError ||
                          reader.partial_bytes() > 0)) {
    failure = "daemon connection lost: " + reader.loss_detail();
  }
  if (!failure.empty()) {
    return Status::Fail(Outcome::kInternalError, "client", failure);
  }
  if (arrivals != sent.size()) {
    return Status::Fail(Outcome::kInternalError, "client",
                        "daemon answered " + std::to_string(arrivals) +
                            " of " + std::to_string(sent.size()) + " jobs");
  }
  return Status::Ok();
}

}  // namespace

Status JobdOptions::validate() const {
  Problems problems;
  const std::string bound = ", " + std::to_string(kMaxThreads) + "]";
  problems.flag(threads < 0 || threads > kMaxThreads,
                "threads must be in [0" + bound);
  problems.flag(!valid_deadline(deadline_s),
                std::string("deadline_s") + kDeadlineRange);
  problems.flag(workers < 0 || workers > kMaxThreads,
                "workers must be in [0" + bound);
  problems.flag(workers > 0 && worker_command.empty(),
                "worker_command must not be empty when workers > 0");
  problems.flag(stall_timeout_s < 0.0, "stall_timeout_s must be >= 0");
  problems.flag(max_attempts < 1, "max_attempts must be >= 1");
  problems.flag(cache_mb < 0, "cache_mb must be >= 0");
  return problems.status("jobd");
}

ServiceMetrics run_batch(const std::vector<JobSpec>& specs,
                         const std::vector<int>& slots,
                         std::vector<JobResult>& results,
                         const JobdOptions& options,
                         core::FitnessCache* cache,
                         const std::function<void(const JobResult&)>&
                             on_result) {
  const Status valid = options.validate();
  MFD_REQUIRE(valid.ok(), "run_batch: " + valid.message);
  const auto sink =
      std::make_shared<BatchSink>(results, on_result, slots.size());
  int executors = options.workers > 0 ? options.workers : options.threads;
  if (executors == 0) executors = ThreadPool::hardware_threads();
  ExecutionCore::Policy policy;
  // The queue holds the whole batch. One executor runs it in input order,
  // so a crash after job k leaves exactly jobs 0..k journaled.
  policy.capacity = slots.size();
  policy.age_promote_s = executors == 1 ? 0.0 : kBulkAgePromoteS;
  policy.default_deadline_s = options.deadline_s;
  policy.stall_timeout_s = options.stall_timeout_s;
  policy.max_attempts = options.max_attempts;
  policy.control = options.control;
  policy.tracer = options.tracer;
  ExecutionCore core(policy, cache);
  for (const int slot : slots) {
    const JobSpec& spec = specs[static_cast<std::size_t>(slot)];
    Task task;
    task.spec = std::shared_ptr<const JobSpec>(std::shared_ptr<void>(), &spec);
    task.sink = sink;
    task.index = slot;
    task.job_class = static_cast<int>(job_class_of(spec));
    (void)core.submit(task);
  }
  if (slots.empty()) {
    // Every job was answered already (parse errors, a full resume).
  } else if (options.workers > 0) {
    WorkerCommand command;
    command.argv = options.worker_command;
    if (!options.cache_dir.empty()) {
      // Workers own their caches; they share through the persistent tier.
      command.argv.insert(command.argv.end(),
                          {"--cache-dir", options.cache_dir, "--cache-mb",
                           std::to_string(options.cache_mb)});
    }
    if (!options.fault_inject.empty()) {
      command.env.push_back(std::string(kFaultInjectEnv) + "=" +
                            options.fault_inject);
    }
    core.add_workers(command, executors);
  } else {
    core.add_in_process(executors);
  }
  sink->wait();
  (void)core.close();
  const ServiceMetrics metrics = core.metrics();
  if (options.tracer != nullptr) {
    options.tracer->counter("svc.jobs_ok", metrics.jobs_ok);
    options.tracer->counter("svc.jobs_stopped", metrics.jobs_stopped);
    options.tracer->counter("svc.jobs_failed", metrics.jobs_failed);
    options.tracer->counter("svc.jobs_retried", metrics.jobs_retried);
    options.tracer->counter("svc.jobs_quarantined", metrics.jobs_quarantined);
    options.tracer->counter("svc.workers_lost", metrics.workers_lost);
  }
  return metrics;
}

JobdReport run_jobd(std::istream& in, std::ostream& out,
                    const JobdOptions& options,
                    std::vector<JobResult>* results_out) {
  const auto start = std::chrono::steady_clock::now();
  // Phase 1: parse every line up front. Malformed lines keep their slot in
  // the output (stage "parse") instead of shifting later results. A journal
  // keys on each slot's raw line (a resumed run must prove each record
  // answers *this* batch's line i, parse errors included), and a daemon is
  // sent the raw lines at their line numbers, so either keeps them.
  const bool keep_lines = !options.journal_dir.empty() || options.connect;
  Batch batch;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (blank(line)) continue;
    const int index = static_cast<int>(batch.results.size());
    try {
      batch.specs.push_back(JobSpec::from_json(Json::parse(line)));
      batch.results.emplace_back();
      batch.state.push_back(Slot::kPending);
    } catch (const std::exception& e) {
      batch.specs.emplace_back();
      batch.results.push_back(
          parse_error_result(index, line_number, line, e.what()));
      batch.state.push_back(Slot::kParseError);
    }
    if (keep_lines) {
      batch.lines.push_back(std::move(line));
      batch.line_numbers.push_back(line_number);
    }
  }
  batch.bytes.resize(batch.results.size());

  // Durable-execution setup: the journal (when configured) adopts an
  // earlier interrupted run's completed results; the fault plan drives the
  // driver-level chaos points (daemon_crash / journal_torn_tail / conn_drop).
  JobdReport report;
  ResultJournal journal;
  if (!options.journal_dir.empty()) {
    report.journal_status =
        journal.open(options.journal_dir, batch.lines, options.resume);
    if (!report.journal_status.ok()) {
      // Durability was requested and cannot be provided; running anyway
      // would silently downgrade the contract. Nothing is emitted.
      return report;
    }
  }
  const FaultInjectPlan faults = options.fault_inject.empty()
                                     ? FaultInjectPlan::from_env()
                                     : FaultInjectPlan::parse(options.fault_inject);

  // Adopted results: the journal's stored line bytes are emitted verbatim
  // (that is the byte-identity guarantee); the parsed form fills the slot
  // for report accounting. A record that cannot be parsed back is dropped
  // and its job recomputed — defense in depth, the checksum already vouches
  // for the bytes.
  for (const auto& [index, payload] : journal.completed()) {
    const auto slot = static_cast<std::size_t>(index);
    try {
      batch.results[slot] = JobResult::from_json(Json::parse(payload));
      batch.state[slot] = Slot::kAdopted;
      batch.bytes[slot] = payload;
    } catch (const std::exception&) {
      // Recompute this job.
    }
  }
  // Every answer funnels through one hook: keep its line, journal a
  // deterministic outcome (fsync'd before the batch moves on), then fire
  // the injected driver crash. May run on executor threads.
  std::mutex journal_failure_mutex;
  const Record record = [&](const JobResult& result, std::string result_line) {
    if (journal.active() && journal_eligible(result.status.outcome)) {
      if (faults.fires(FaultPoint::kJournalTornTail, result.index, 0)) {
        (void)journal.append_torn(result.index, result_line);
        std::_Exit(kFaultExitCode);
      }
      const Status appended = journal.append(result.index, result_line);
      if (!appended.ok()) {
        const std::lock_guard<std::mutex> lock(journal_failure_mutex);
        if (report.journal_status.ok()) report.journal_status = appended;
      }
    }
    batch.bytes[static_cast<std::size_t>(result.index)] = std::move(result_line);
    if (faults.fires(FaultPoint::kDaemonCrash, result.index, 0)) {
      std::_Exit(kFaultExitCode);
    }
  };

  // Parse errors are final (and deterministic: a resumed run re-reads the
  // same input, so the "line N" messages match); journal them before the
  // batch runs.
  std::vector<int> pending;
  for (std::size_t i = 0; i < batch.state.size(); ++i) {
    if (batch.state[i] == Slot::kParseError) {
      record(batch.results[i], batch.results[i].to_json().dump());
    } else if (batch.state[i] == Slot::kPending) {
      pending.push_back(static_cast<int>(i));
    }
  }

  // Phase 2: run the well-formed jobs the journal does not answer, in
  // place: results land in their slots, and the index every hook sees is
  // the batch index. In-process jobs share one fitness cache; worker
  // batches share through the persistent tier instead (each worker loads
  // cache_dir at startup and appends to it at EOF).
  if (pending.empty()) {
    // Every slot is answered already (parse errors, a full resume).
  } else if (options.connect) {
    report.connection = run_on_daemon(*options.connect, batch, record, faults,
                                      &report.metrics);
  } else {
    std::unique_ptr<core::FitnessCache> cache;
    if (options.workers <= 0) {
      cache = open_fitness_cache(options.cache_dir, options.cache_mb);
    }
    report.metrics = run_batch(
        batch.specs, pending, batch.results, options, cache.get(),
        [&record](const JobResult& result) {
          record(result, result.to_json().dump());
        });
    if (cache != nullptr) report.cache_persist = cache->persist();
  }
  report.journal_appended = journal.stats().records_appended;
  // A batch the daemon did not finish is not written: its journal keeps
  // what arrived for a resumed run.
  if (!report.connection.ok()) return report;

  // The slots answered without running count once too.
  for (std::size_t i = 0; i < batch.state.size(); ++i) {
    if (batch.state[i] == Slot::kPending) continue;
    report.metrics.tally(batch.results[i]);
    if (batch.state[i] == Slot::kAdopted) ++report.metrics.jobs_resumed;
  }
  report.metrics.wall_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();

  // Phase 3: emit, in batch order. Each line is built whole before it
  // touches the stream, so there is never a partially written JSONL record.
  // Adopted slots emit the journal's stored bytes verbatim; everything else
  // the bytes its answer came with — the same bytes an uninterrupted run
  // would produce, since run_job is a pure function of the spec.
  report.job_run_seconds.reserve(batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    batch.bytes[i] += '\n';
    out << batch.bytes[i];
    report.job_run_seconds.push_back(batch.results[i].run_seconds);
  }
  out.flush();
  report.interrupted = !options.connect && options.control != nullptr &&
                       options.control->check() != StopReason::kNone;
  if (results_out != nullptr) *results_out = std::move(batch.results);
  return report;
}

int run_worker(net::FramedConnection& requests, net::FramedConnection& results,
               const FaultInjectPlan* plan, core::FitnessCache* cache) {
  const FaultInjectPlan env_plan =
      plan == nullptr ? FaultInjectPlan::from_env() : FaultInjectPlan{};
  const FaultInjectPlan& faults = plan != nullptr ? *plan : env_plan;

  using ReadStatus = net::FramedConnection::ReadStatus;
  std::string line;
  ReadStatus status = ReadStatus::kLine;
  bool written = true;
  while (written &&
         (status = requests.read_line(&line)) == ReadStatus::kLine) {
    if (blank(line)) continue;
    int job = -1;
    int attempt = 0;
    JobResult result;
    try {
      const Json envelope = Json::parse(line);
      ObjectReader request(envelope, "worker request");
      if (!request.read("job", job)) request.fail("job", "is required");
      request.read("attempt", attempt);
      const JobSpec spec = JobSpec::from_json(request.at("spec"));

      if (faults.fires(FaultPoint::kWorkerAbort, job, attempt)) {
        std::abort();  // injected crash: the job dies with this process
      }
      if (faults.fires(FaultPoint::kWorkerStall, job, attempt)) {
        // Injected wedge: produce nothing until the supervisor's stall
        // watchdog kills us.
        for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
      }

      RunControl control;
      if (spec.deadline_s > 0.0) control.set_timeout(spec.deadline_s);
      result = run_job(spec, &control, cache);
    } catch (const std::exception& e) {
      // A malformed envelope still gets an answer: the lockstep protocol
      // (one result line per request line) must never skew.
      result.status =
          Status::Fail(Outcome::kInternalError, "worker_protocol", e.what());
    }
    result.index = job;

    const std::string out_line = result.to_json().dump();
    if (faults.fires(FaultPoint::kTruncateOutput, job, attempt)) {
      // Injected torn write: half the record, no newline, then vanish.
      const ssize_t torn =
          ::write(results.fd(), out_line.data(), out_line.size() / 2);
      (void)torn;
      std::_Exit(0);
    }
    // A failed write means the supervisor is gone: nothing left to serve.
    written = results.write_line(out_line);
  }
  // Persist what this worker learned before exiting — also after a failed
  // read or write, since the results themselves were already computed and
  // valid. Persist failures are swallowed: the cache is an accelerator,
  // never a correctness dependency.
  if (cache != nullptr) (void)cache->persist();
  const bool clean_end =
      status == ReadStatus::kEof && requests.partial_bytes() == 0;
  return written && clean_end ? 0 : 1;
}

}  // namespace mfd::svc
