#include "svc/executor.hpp"

#include <errno.h>
#include <poll.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <optional>
#include <random>
#include <utility>

#include "common/json.hpp"

namespace mfd::svc {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBackoffSeed = 2024;
constexpr double kBackoffBaseS = 0.05;
constexpr double kBackoffMaxS = 2.0;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The request envelope: the job's index and attempt (the fault-injection
/// keys) around its spec, with the default deadline folded into specs that
/// set none. deadline_s is not a result field, so no output byte changes.
std::string request_line(const Task& task, double default_deadline_s) {
  Json spec = task.spec->to_json();
  if (task.spec->deadline_s <= 0.0 && default_deadline_s > 0.0) {
    for (auto& [key, value] : spec.as_object()) {
      if (key == "deadline_s") value = Json(default_deadline_s);
    }
  }
  Json request = Json::object();
  request.set("job", Json(std::int64_t{task.index}));
  request.set("attempt", Json(std::int64_t{task.attempt}));
  request.set("spec", std::move(spec));
  return request.dump();
}

/// Waits until `fd` is readable or closed. False once `deadline` passed
/// (only when `bounded`). A signal never reads as a timeout: EINTR retries
/// with the time that is left.
bool wait_readable(int fd, bool bounded, Clock::time_point deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (bounded) {
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero()) return false;
      timeout_ms = static_cast<int>(std::min<long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(left).count() +
              1,
          INT_MAX));
    }
    struct pollfd entry = {fd, POLLIN, 0};
    const int ready = ::poll(&entry, 1, timeout_ms);
    if (ready > 0 || (ready < 0 && errno != EINTR)) return true;
  }
}

}  // namespace

double backoff_delay_s(std::uint64_t seed, int job, int attempt) {
  double delay = kBackoffBaseS * std::pow(2.0, attempt - 1);
  if (delay > kBackoffMaxS) delay = kBackoffMaxS;
  // Jitter from a stream keyed on (seed, job, attempt): the same seed
  // replays the exact same requeue schedule.
  std::uint64_t key = seed;
  key ^= 0x9e3779b97f4a7c15ull +
         static_cast<std::uint64_t>(job) * 0xbf58476d1ce4e5b9ull;
  key ^= static_cast<std::uint64_t>(attempt) * 0x94d049bb133111ebull + (key << 6);
  std::mt19937_64 engine(key);
  const double unit =
      std::uniform_real_distribution<double>(0.0, 1.0)(engine);
  return delay * (0.5 + 0.5 * unit);
}

/// The far end of an out-of-process executor: a worker subprocess on a
/// pipe pair, respawned after every loss, or a remote worker on the TCP
/// connection it opened, dead after a loss (a restarted worker connects
/// again).
struct ExecutionCore::Link {
  bool pipe = false;
  WorkerCommand command;
  std::unique_ptr<WorkerProcess> process;
  net::FramedConnection socket;

  /// Graceful shutdown: a worker process that sees EOF persists its cache
  /// and exits; one that does not within a second is killed.
  ~Link() {
    if (process == nullptr) return;
    process->close_stdin();
    process->join(1.0);
  }

  bool send(const std::string& line) {
    return pipe ? process->send_line(line) : socket.write_line(line);
  }
  /// The result side, read nonblocking.
  net::FramedConnection& results() { return pipe ? process->output() : socket; }

  /// After a loss: kills the worker first when `kill` is set, adds what is
  /// known about its end to `*detail`, and replaces it if it can. False
  /// when the link is dead.
  bool recover(bool kill, std::string* detail) {
    if (!pipe) {
      if (detail->empty()) *detail = "connection closed";
      return false;
    }
    if (kill) process->kill_now();
    const std::string status = describe_wait_status(process->join(0.25));
    *detail = detail->empty() ? status : *detail + "; " + status;
    std::string error;
    process = WorkerProcess::spawn(command, &error);
    return process != nullptr;
  }

  /// "N <noun>" in quarantine messages.
  [[nodiscard]] const char* loss_noun(bool plural) const {
    if (pipe) return plural ? "worker crashes" : "worker crash";
    return plural ? "remote-worker losses" : "remote-worker loss";
  }
};

ExecutionCore::ExecutionCore(const Policy& policy, core::FitnessCache* cache)
    // Clamped so a daemon's invalid options surface through its start()
    // as a Status instead of a precondition throw here.
    : policy_(policy),
      queue_(std::max<std::size_t>(policy.capacity, 1), kJobClassCount,
             policy.age_promote_s),
      cache_(cache),
      cache_built_(cache != nullptr ? cache->stats()
                                    : core::FitnessCacheStats{}) {}

ExecutionCore::~ExecutionCore() { (void)close(); }

bool ExecutionCore::submit(const Task& task) {
  // Claimed before the push: from then on an executor may run the task and
  // drop its claims.
  context_.claim(*task.spec);
  // Counted under the metrics lock, so no executor can tally the job's
  // result before its admission.
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (!queue_.try_push(task.job_class, task)) {
    context_.release(*task.spec);
    return false;
  }
  ++metrics_.jobs_admitted;
  ++(task.job_class == static_cast<int>(JobClass::kInteractive)
         ? metrics_.admitted_interactive
         : metrics_.admitted_bulk);
  return true;
}

void ExecutionCore::add_in_process(int count) {
  for (int i = 0; i < count; ++i) start(nullptr);
}

void ExecutionCore::add_workers(const WorkerCommand& command, int count) {
  // Spawn every worker before any executor starts, so an early loss cannot
  // look like the last one alive.
  std::vector<std::unique_ptr<Link>> links;
  for (int i = 0; i < count; ++i) {
    auto link = std::make_unique<Link>();
    std::string error;
    link->process = WorkerProcess::spawn(command, &error);
    if (link->process == nullptr) {
      this->count([](ServiceMetrics& m) { ++m.workers_lost; });
      continue;
    }
    link->pipe = true;
    link->command = command;
    links.push_back(std::move(link));
  }
  if (links.empty()) {
    add_in_process(1);  // no worker could start at all
    return;
  }
  pipes_alive_ = static_cast<int>(links.size());
  for (std::unique_ptr<Link>& link : links) start(std::move(link));
}

void ExecutionCore::add_remote(net::FramedConnection conn) {
  auto link = std::make_unique<Link>();
  link->socket = std::move(conn);
  link->socket.set_nonblocking(false);  // this executor owns it now
  start(std::move(link));
}

void ExecutionCore::start(std::unique_ptr<Link> link) {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  if (closed_) return;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->finished.load(std::memory_order_acquire)) {
      it->thread.join();
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  const bool pipe = link != nullptr && link->pipe;
  Slot& slot = slots_.emplace_back();
  slot.thread = std::thread([this, &slot, pipe, link = std::move(link)]() mutable {
    drain(link.get());
    if (pipe) {
      link.reset();
      // The last worker process is gone: run the rest here.
      if (pipes_alive_.fetch_sub(1) == 1) drain(nullptr);
    }
    slot.finished.store(true, std::memory_order_release);
  });
}

std::vector<Task> ExecutionCore::close() {
  std::list<Slot> slots;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    if (closed_) return {};
    closed_ = true;
    slots.swap(slots_);
  }
  queue_.close();
  for (Slot& slot : slots) slot.thread.join();
  std::vector<Task> unrun;
  while (std::optional<Task> task = queue_.pop()) {
    context_.release(*task->spec);
    unrun.push_back(std::move(*task));
  }
  return unrun;
}

void ExecutionCore::deliver(ResultSink& sink, JobResult result) {
  count([&result](ServiceMetrics& m) { m.tally(result); });
  sink.deliver(std::move(result));
}

ServiceMetrics ExecutionCore::metrics() const {
  ServiceMetrics metrics;
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics = metrics_;
  }
  metrics.wall_seconds = seconds_between(built_, Clock::now());
  metrics.suites_reused = context_.suites_reused();
  if (cache_ != nullptr) {
    const core::FitnessCacheStats now = cache_->stats();
    metrics.cache_shared_hits = now.hits - cache_built_.hits;
    metrics.cache_shared_misses = now.misses - cache_built_.misses;
    metrics.cache_entries = static_cast<std::int64_t>(cache_->size());
    metrics.cache_disk_loaded = now.disk_entries_loaded;
  }
  return metrics;
}

void ExecutionCore::drain(Link* link) {
  while (std::optional<Task> task = queue_.pop()) {
    const Clock::time_point started = Clock::now();
    const auto span =
        trace_span(policy_.tracer, "job[" + std::to_string(task->index) +
                                       "]:" + to_string(task->spec->kind));
    // Once the batch control stops, run_here() answers unstarted jobs
    // kCancelled without running them, whatever the executor.
    if (link == nullptr || stop_requested(policy_.control)) {
      finish(*task, run_here(*task), started);
      continue;
    }
    JobResult result;
    std::string detail;
    const Shipment shipped = ship(*link, *task, &result, &detail);
    if (shipped == Shipment::kAnswered) {
      count([](ServiceMetrics& m) { ++m.jobs_remote; });
      finish(*task, std::move(result), started);
      continue;
    }
    const bool alive = link->recover(shipped == Shipment::kWedged, &detail);
    lose(std::move(*task), shipped != Shipment::kUnsent, detail, *link);
    if (!alive) return;
  }
}

ExecutionCore::Shipment ExecutionCore::ship(Link& link, const Task& task,
                                            JobResult* result,
                                            std::string* detail) {
  if (!link.send(request_line(task, policy_.default_deadline_s))) {
    *detail = "request write failed";
    return Shipment::kUnsent;
  }
  const double stall_s = link.pipe ? policy_.stall_timeout_s : 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::min(stall_s, kMaxDeadlineS)));
  net::FramedConnection& conn = link.results();
  std::string line;
  for (;;) {
    const net::FramedConnection::ReadStatus status = conn.read_line(&line);
    if (status == net::FramedConnection::ReadStatus::kLine) break;
    if (status != net::FramedConnection::ReadStatus::kAgain) {
      *detail = conn.loss_detail();
      return Shipment::kLost;
    }
    if (!wait_readable(conn.fd(), stall_s > 0.0, deadline)) {
      *detail = "stalled: no result within " + shortest_double(stall_s) +
                "s of assignment";
      return Shipment::kWedged;
    }
  }
  try {
    *result = JobResult::from_json(Json::parse(line));
    if (result->index == task.index) return Shipment::kAnswered;
    *detail = "result for job " + std::to_string(result->index) +
              " while job " + std::to_string(task.index) + " was in flight";
  } catch (const std::exception& e) {
    *detail = std::string("malformed result line: ") + e.what();
  }
  return Shipment::kWedged;
}

JobResult ExecutionCore::run_here(const Task& task) {
  RunControl control;
  control.set_parent(policy_.control);
  const double deadline_s = task.spec->deadline_s > 0.0
                                ? task.spec->deadline_s
                                : policy_.default_deadline_s;
  if (deadline_s > 0.0) control.set_timeout(deadline_s);
  return run_job(*task.spec, &control, cache_, &context_);
}

void ExecutionCore::finish(const Task& task, JobResult result,
                           Clock::time_point started) {
  result.index = task.index;
  result.queue_wait_seconds = seconds_between(task.enqueued, started);
  result.run_seconds = seconds_between(started, Clock::now());
  // Released first: once its sink has every result, a core holds nothing.
  context_.release(*task.spec);
  deliver(*task.sink, std::move(result));
}

void ExecutionCore::lose(Task task, bool burned, const std::string& detail,
                         const Link& link) {
  count([](ServiceMetrics& m) { ++m.workers_lost; });
  if (burned) {
    ++task.attempt;
    if (task.attempt >= policy_.max_attempts) {
      quarantine(task, detail, link);
      return;
    }
    count([](ServiceMetrics& m) { ++m.jobs_retried; });
    std::this_thread::sleep_for(std::chrono::duration<double>(
        backoff_delay_s(kBackoffSeed, task.index, task.attempt)));
  }
  task.enqueued = Clock::now();
  // Blocking: a requeue is not an admission, and a closed queue refuses it.
  if (!queue_.push(task.job_class, task)) {
    quarantine(task, "daemon stopped before the job could be retried", link);
  }
}

void ExecutionCore::quarantine(const Task& task, const std::string& detail,
                               const Link& link) {
  count([](ServiceMetrics& m) { ++m.jobs_quarantined; });
  JobResult result;
  result.id = task.spec->id;
  result.kind = task.spec->kind;
  result.status = Status::Fail(
      Outcome::kUnavailable, "worker",
      "quarantined after " + std::to_string(task.attempt) + " " +
          link.loss_noun(task.attempt != 1) + "; last: " + detail);
  finish(task, std::move(result), Clock::now());
}

}  // namespace mfd::svc
