#include "svc/jobd.hpp"

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
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "svc/run_job.hpp"

namespace mfd::svc {

namespace {

/// A batch's bulk jobs wait at most this long behind interactive ones.
constexpr double kBatchAgePromoteS = 5.0;

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

}  // namespace

Status JobdOptions::validate() const {
  std::string problems;
  const auto flag = [&problems](bool bad, const std::string& what) {
    if (!bad) return;
    if (!problems.empty()) problems += "; ";
    problems += what;
  };
  const std::string bound = ", " + std::to_string(kMaxThreads) + "]";
  flag(threads < 0 || threads > kMaxThreads, "threads must be in [0" + bound);
  flag(deadline_s < 0.0, "deadline_s must be >= 0");
  flag(workers < 0 || workers > kMaxThreads, "workers must be in [0" + bound);
  flag(workers > 0 && worker_command.empty(),
       "worker_command must not be empty when workers > 0");
  flag(stall_timeout_s < 0.0, "stall_timeout_s must be >= 0");
  flag(max_attempts < 1, "max_attempts must be >= 1");
  flag(cache_mb < 0, "cache_mb must be >= 0");
  if (problems.empty()) return Status::Ok();
  return Status::Fail(Outcome::kInvalidOptions, "jobd", std::move(problems));
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
  policy.age_promote_s = executors == 1 ? 0.0 : kBatchAgePromoteS;
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
                    const JobdOptions& options) {
  // Phase 1: parse every line up front. Malformed lines keep their slot in
  // the output (stage "parse") instead of shifting later results. With a
  // journal the raw line bytes are kept per slot: they key the journal (a
  // resumed run must prove each record answers *this* batch's line i, parse
  // errors included).
  std::vector<JobResult> results;
  std::vector<JobSpec> specs;  // per slot; default-constructed on parse error
  std::vector<std::string> raw_lines;
  std::vector<bool> is_parse_error;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (blank(line)) continue;
    const int index = static_cast<int>(results.size());
    if (!options.journal_dir.empty()) raw_lines.push_back(line);
    try {
      JobSpec spec = JobSpec::from_json(Json::parse(line));
      results.emplace_back();
      is_parse_error.push_back(false);
      specs.push_back(std::move(spec));
    } catch (const std::exception& e) {
      results.push_back(parse_error_result(index, line_number, e.what()));
      is_parse_error.push_back(true);
      specs.emplace_back();
    }
  }

  JobdReport report;

  // Durable-execution setup: the journal (when configured) adopts an
  // earlier interrupted run's completed results; the fault plan drives the
  // driver-level chaos points (daemon_crash / journal_torn_tail).
  ResultJournal journal;
  if (!options.journal_dir.empty()) {
    report.journal_status =
        journal.open(options.journal_dir, raw_lines, options.resume);
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
  std::vector<bool> adopted(results.size(), false);
  for (const auto& [index, payload] : journal.completed()) {
    try {
      JobResult result = JobResult::from_json(Json::parse(payload));
      results[static_cast<std::size_t>(index)] = std::move(result);
      adopted[static_cast<std::size_t>(index)] = true;
    } catch (const std::exception&) {
      // Recompute this job.
    }
  }
  // Everything below funnels completed results through one hook: journal
  // the deterministic ones (fsync'd before the batch moves on), then fire
  // the injected driver crash. May run on executor threads.
  std::mutex journal_failure_mutex;
  const auto record = [&](const JobResult& result) {
    if (journal.active() && journal_eligible(result.status.outcome)) {
      const std::string result_line = result.to_json().dump();
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
    if (faults.fires(FaultPoint::kDaemonCrash, result.index, 0)) {
      std::_Exit(kFaultExitCode);
    }
  };

  // Parse errors are final (and deterministic: a resumed run re-reads the
  // same input, so the "line N" messages match); journal them before the
  // batch runs.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (is_parse_error[i] && !adopted[i]) record(results[i]);
  }

  // Phase 2: run the well-formed jobs the journal does not answer, in
  // place: results land in their slots, and the index every hook sees is
  // the batch index. In-process jobs share one fitness cache; worker
  // batches share through the persistent tier instead (each worker loads
  // cache_dir at startup and appends to it at EOF).
  std::vector<int> slots;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!is_parse_error[i] && !adopted[i]) slots.push_back(static_cast<int>(i));
  }
  std::unique_ptr<core::FitnessCache> cache;
  if (options.shared_cache && options.workers <= 0) {
    cache = open_fitness_cache(options.cache_dir, options.cache_mb);
  }
  report.metrics =
      run_batch(specs, slots, results, options, cache.get(), record);
  // The slots answered without running count once too.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!is_parse_error[i] && !adopted[i]) continue;
    report.metrics.tally(results[i]);
    if (is_parse_error[i]) ++report.metrics.parse_errors;
    if (adopted[i]) ++report.metrics.jobs_resumed;
  }
  Status cache_persist = Status::Ok();
  if (cache != nullptr) cache_persist = cache->persist();

  // Phase 3: emit. Each line is built whole before it touches the stream,
  // so there is never a partially written JSONL record. Adopted slots emit
  // the journal's stored bytes verbatim; everything else is freshly
  // serialized — the same bytes an uninterrupted run would produce, since
  // run_job is a pure function of the spec.
  report.job_run_seconds.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << (adopted[i] ? journal.completed().at(static_cast<int>(i))
                       : results[i].to_json().dump()) +
               "\n";
    report.job_run_seconds.push_back(results[i].run_seconds);
  }
  out.flush();
  report.cache_persist = cache_persist;
  report.journal_appended = journal.stats().records_appended;
  report.interrupted =
      options.control != nullptr && options.control->check() != StopReason::kNone;
  return report;
}

int run_worker(std::istream& in, std::ostream& out,
               const FaultInjectPlan* plan, core::FitnessCache* cache) {
  const FaultInjectPlan env_plan =
      plan == nullptr ? FaultInjectPlan::from_env() : FaultInjectPlan{};
  const FaultInjectPlan& faults = plan != nullptr ? *plan : env_plan;

  // Warm state for the worker's lifetime: chips/assays parsed once, served
  // to every later job over the same inputs (results are unaffected).
  JobContext context;
  std::string line;
  while (std::getline(in, line)) {
    if (blank(line)) continue;
    int job = -1;
    int attempt = 0;
    JobResult result;
    try {
      const Json request = Json::parse(line);
      job = static_cast<int>(request.at("job").as_int());
      if (const Json* member = request.get("attempt")) {
        attempt = static_cast<int>(member->as_int());
      }
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
      result = run_job(spec, &control, cache, &context);
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
      out.write(out_line.data(),
                static_cast<std::streamsize>(out_line.size() / 2));
      out.flush();
      std::_Exit(0);
    }
    out << out_line << '\n';
    out.flush();
    if (!out) break;  // the supervisor is gone; nothing left to serve
  }
  // Persist what this worker learned before exiting — also on a failed
  // write, since the results themselves were already computed and valid.
  // Persist failures are swallowed: the cache is an accelerator, never a
  // correctness dependency.
  if (cache != nullptr) (void)cache->persist();
  return out ? 0 : 1;
}

}  // namespace mfd::svc
