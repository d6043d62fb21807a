#include "svc/daemon.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "net/framed.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"
#include "svc/run_job.hpp"

namespace mfd::svc {

namespace {

/// Unsent result bytes past which the daemon stops reading a client's
/// specs, so a client that never reads holds at most this much plus its
/// jobs already admitted.
constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;
/// Lines the I/O thread handles from one peer before it turns to the next.
constexpr int kLinesPerTurn = 64;
/// How long stop() waits for a client that takes none of its last results.
constexpr int kStopLingerMs = 5000;

/// Wakes a poll() on the eventfd `fd`.
void notify(int fd) {
  const std::uint64_t one = 1;
  while (::write(fd, &one, sizeof one) < 0 && errno == EINTR) {
  }
}

/// One client's result side: slots finished lines by the client's own
/// input index and queues them strictly in that order, so the stream a
/// client reads is byte-identical to a local run_jobd() no matter which
/// executor or remote worker finished which job first.
///
/// Executors only queue and wake the I/O thread, which alone writes to the
/// socket and never waits doing so: a client that stops reading delays
/// nobody else.
class ClientSession : public ResultSink {
 public:
  ClientSession(ExecutionCore* core, int wake_fd)
      : core_(core), wake_fd_(wake_fd) {}

  /// Slots one finished line; queues every consecutively-ready line.
  void deliver(JobResult result) override {
    std::string line = result.to_json().dump();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ready_.emplace(result.index, std::move(line));
      for (auto it = ready_.find(next_); it != ready_.end();
           it = ready_.find(next_)) {
        if (!gone_) unsent_ += it->second + '\n';
        ready_.erase(it);
        ++next_;
      }
      maybe_served();
    }
    notify(wake_fd_);
  }

  /// The client's input ended after `total` jobs; once every one is
  /// delivered the session is served.
  void finish_input(int total) {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_ = total;
    maybe_served();
  }

  /// Sends what the socket `fd` takes without blocking; returns the bytes
  /// left unsent. A failed send means the client is gone: what it would
  /// have read is dropped (the session accounting still completes).
  std::size_t flush(int fd) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!unsent_.empty()) {
      const ssize_t n = ::send(fd, unsent_.data(), unsent_.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        unsent_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      gone_ = true;
      unsent_.clear();
    }
    return unsent_.size();
  }

  /// Every result was delivered and sent.
  bool done() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return served_ && unsent_.empty();
  }

 private:
  /// Must hold mutex_.
  void maybe_served() {
    if (total_ < 0 || next_ < total_ || served_) return;
    served_ = true;
    core_->count([](ServiceMetrics& m) { ++m.clients_served; });
  }

  ExecutionCore* core_;
  int wake_fd_;
  std::mutex mutex_;
  std::map<int, std::string> ready_;
  std::string unsent_;
  int next_ = 0;
  int total_ = -1;
  bool served_ = false;
  bool gone_ = false;
};

/// A connection of the I/O thread: its hello, then a client's specs in and
/// results out.
struct Peer {
  net::FramedConnection conn;
  /// Set once the hello said "client".
  std::shared_ptr<ClientSession> session;
  /// The hello's default class for specs without a priority.
  std::string priority;
  /// Lines read after the hello (the "line N" of parse errors).
  int lines = 0;
  /// Non-blank lines read: the next job's index.
  int jobs = 0;
  /// The input ended (EOF, read error, stop): never read again.
  bool ended = false;
  /// The last turn stopped with lines possibly left in the buffer.
  bool more = false;
  /// Result bytes the socket did not take yet.
  std::size_t unsent = 0;
};

}  // namespace

Status DaemonOptions::validate() const {
  Problems problems;
  problems.flag(port < 0 || port > 65535, "port must be in [0, 65535]");
  problems.flag(executors < 0 || executors > kMaxThreads,
                "executors must be in [0, " + std::to_string(kMaxThreads) +
                    "]");
  problems.flag(queue_capacity == 0, "queue_capacity must be >= 1");
  problems.flag(!valid_deadline(default_deadline_s),
                std::string("default_deadline_s") + kDeadlineRange);
  problems.flag(cache_mb < 0, "cache_mb must be >= 0");
  problems.flag(max_attempts < 1, "max_attempts must be >= 1");
  return problems.status("daemon");
}

struct JobDaemon::Impl {
  explicit Impl(DaemonOptions opts)
      : options(std::move(opts)),
        cache(open_fitness_cache(options.cache_dir, options.cache_mb)),
        core(policy(options), cache.get()) {}

  ~Impl() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  static ExecutionCore::Policy policy(const DaemonOptions& options) {
    ExecutionCore::Policy policy;
    policy.capacity = options.queue_capacity;
    policy.age_promote_s = kBulkAgePromoteS;
    policy.default_deadline_s = options.default_deadline_s;
    policy.max_attempts = options.max_attempts;
    return policy;
  }

  DaemonOptions options;
  /// Warm state shared by every job the daemon ever runs.
  std::unique_ptr<core::FitnessCache> cache;
  ExecutionCore core;

  std::unique_ptr<net::Listener> listener;
  /// The bound port, kept past stop() (which closes the listener so
  /// reconnecting workers get connection-refused, not a silent backlog).
  int bound_port = 0;
  /// Wakes the I/O thread: results queued, or stop().
  int wake_fd = -1;
  std::atomic<bool> stopping{false};
  std::thread io_thread;

  bool started = false;
  bool stopped = false;

  /// The I/O thread: blocks in poll() on the listener, the wake fd and
  /// every open connection. It reads and admits, sends queued results, and
  /// at stop() drains the core and sends the last results.
  void io_loop() {
    std::vector<Peer> peers;
    std::vector<struct pollfd> fds;
    while (!stopping.load()) {
      fds.assign({{listener->fd(), POLLIN, 0}, {wake_fd, POLLIN, 0}});
      int timeout_ms = -1;
      for (const Peer& peer : peers) {
        const bool reading = !peer.ended && peer.unsent < kMaxUnsentBytes;
        if (reading && peer.more) timeout_ms = 0;
        const short events = static_cast<short>(
            (reading ? POLLIN : 0) | (peer.unsent > 0 ? POLLOUT : 0));
        fds.push_back({events != 0 ? peer.conn.fd() : -1, events, 0});
      }
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;  // EINTR
      std::uint64_t wakes = 0;
      if (fds[1].revents != 0) (void)!::read(wake_fd, &wakes, sizeof wakes);
      // Peers first: fds has no entries for the ones accepted below.
      for (std::size_t i = peers.size(); i-- > 0;) {
        Peer& peer = peers[i];
        const bool reading = !peer.ended && peer.unsent < kMaxUnsentBytes;
        if (reading && (peer.more || fds[i + 2].revents != 0) && !serve(peer)) {
          peers.erase(peers.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        if (peer.session == nullptr) continue;
        peer.unsent = peer.session->flush(peer.conn.fd());
        if (peer.ended && peer.session->done()) {
          peer.conn.shutdown_write();
          peers.erase(peers.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      int fd = -1;
      std::string error;
      while ((fds[0].revents & POLLIN) != 0 &&
             listener->accept(&fd, &error) ==
                 net::Listener::AcceptStatus::kAccepted) {
        peers.emplace_back().conn = net::FramedConnection(fd);
        peers.back().conn.set_nonblocking(true);
      }
    }
    drain(peers);
  }

  /// stop() on the I/O thread: no new connections or lines (every open
  /// client stream ends where it is), admitted jobs drain through the
  /// executors and remote workers, and the last results go out to every
  /// client still reading.
  void drain(std::vector<Peer>& peers) {
    // Closed first, so reconnecting remote workers fail fast instead of
    // parking in a backlog nobody will ever serve.
    listener.reset();
    for (Peer& peer : peers) {
      if (peer.session != nullptr) peer.session->finish_input(peer.jobs);
    }
    // Idle remote workers are hung up on, which they read as a clean EOF.
    // What no executor could run (a remote-worker-only daemon whose workers
    // are gone) is shed, so no client waits on a result nobody computes.
    for (const Task& task : core.close()) {
      shed(task, "shed: daemon stopped before the job could run");
    }
    std::vector<struct pollfd> fds;
    do {
      fds.clear();
      for (Peer& peer : peers) {
        if (peer.session == nullptr) continue;
        if (peer.session->flush(peer.conn.fd()) > 0) {
          fds.push_back({peer.conn.fd(), POLLOUT, 0});
        }
      }
    } while (!fds.empty() &&
             ::poll(fds.data(), fds.size(), kStopLingerMs) != 0);
  }

  /// Handles up to kLinesPerTurn complete lines the peer sent. False when
  /// the connection leaves the I/O thread: not a client, or handed to a
  /// remote-worker executor.
  bool serve(Peer& peer) {
    std::string line;
    for (int turn = 0; turn < kLinesPerTurn; ++turn) {
      const net::FramedConnection::ReadStatus status = peer.conn.read_line(&line);
      peer.more = status == net::FramedConnection::ReadStatus::kLine;
      if (status == net::FramedConnection::ReadStatus::kAgain) return true;
      if (!peer.more) {
        // EOF, a read error, or a line past the cap: the stream ends here.
        if (peer.session == nullptr) return false;
        peer.session->finish_input(peer.jobs);
        peer.ended = true;
        return true;
      }
      if (peer.session != nullptr) {
        admit(peer, line);
      } else if (!hello(peer, line)) {
        return false;
      }
    }
    return true;
  }

  /// First line of every connection says what the peer is; anything else
  /// drops the connection.
  bool hello(Peer& peer, const std::string& line) {
    std::string role;
    try {
      const Json hello = Json::parse(line);
      ObjectReader reader(hello, "hello");
      reader.read("role", role);
      reader.read("priority", peer.priority);
    } catch (const std::exception&) {
      return false;  // not a peer of ours
    }
    if (role == "worker") {
      core.count([](ServiceMetrics& m) { ++m.workers_joined; });
      core.add_remote(std::move(peer.conn));
    }
    if (role != "client") return false;
    peer.session = std::make_shared<ClientSession>(&core, wake_fd);
    return true;
  }

  /// One line of a client's JSONL spec stream (the exact bytes run_jobd()
  /// would read): answered in place when malformed, else admitted into the
  /// core or shed.
  void admit(Peer& peer, const std::string& line) {
    ++peer.lines;
    if (blank(line)) return;
    Task task;
    task.sink = peer.session;
    task.index = peer.jobs++;
    try {
      task.spec = std::make_shared<const JobSpec>(
          JobSpec::from_json(Json::parse(line)));
    } catch (const std::exception& e) {
      core.deliver(*peer.session, parse_error_result(task.index, peer.lines,
                                                     line, e.what()));
      return;
    }
    JobClass job_class;
    if (!job_class_from_name(task.spec->priority, &job_class) &&
        !job_class_from_name(peer.priority, &job_class)) {
      job_class = job_class_of(*task.spec);
    }
    task.job_class = static_cast<int>(job_class);
    if (core.submit(task)) return;
    // Admission control: a full (or closing) queue sheds the job with an
    // immediate answer instead of stalling the I/O thread.
    shed(task, "shed: daemon queue full (capacity " +
                   std::to_string(options.queue_capacity) +
                   ") or shutting down");
  }

  void shed(const Task& task, const std::string& why) {
    JobResult result;
    result.id = task.spec->id;
    result.kind = task.spec->kind;
    result.index = task.index;
    result.status = Status::Fail(Outcome::kUnavailable, "admission", why);
    core.count([](ServiceMetrics& m) { ++m.jobs_shed; });
    core.deliver(*task.sink, std::move(result));
  }
};

JobDaemon::JobDaemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

JobDaemon::~JobDaemon() { stop(); }

Status JobDaemon::start() {
  const Status valid = impl_->options.validate();
  if (!valid.ok()) return valid;
  MFD_REQUIRE(!impl_->started, "JobDaemon: start() called twice");
  std::string error;
  impl_->listener =
      net::Listener::bind(impl_->options.host, impl_->options.port, &error);
  if (impl_->listener != nullptr) {
    impl_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (impl_->wake_fd < 0) error = std::string("eventfd: ") + strerror(errno);
  }
  if (impl_->wake_fd < 0) {
    return Status::Fail(Outcome::kUnavailable, "daemon",
                        "cannot listen on " + impl_->options.host + ":" +
                            std::to_string(impl_->options.port) + ": " +
                            error);
  }
  impl_->bound_port = impl_->listener->port();
  impl_->core.add_in_process(impl_->options.executors);
  impl_->io_thread = std::thread([impl = impl_.get()] { impl->io_loop(); });
  impl_->started = true;
  return Status::Ok();
}

void JobDaemon::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->stopping.store(true);
  notify(impl_->wake_fd);
  impl_->io_thread.join();
  // Keep what the fleet learned (failures are non-fatal: the cache is an
  // accelerator, never a correctness dependency).
  (void)impl_->cache->persist();
}

int JobDaemon::port() const { return impl_->bound_port; }

ServiceMetrics JobDaemon::metrics() const { return impl_->core.metrics(); }

int run_daemon_worker(const ClientOptions& daemon, core::FitnessCache* cache) {
  int served = 0;
  for (;;) {
    std::string error;
    const int fd = net::tcp_connect_backoff(
        daemon.host, daemon.port, daemon.connect_attempts,
        daemon.connect_base_s, daemon.connect_max_s, &error);
    if (fd < 0) break;  // the daemon is gone for good
    net::FramedConnection conn(fd);
    Json hello = Json::object();
    hello.set("role", Json(std::string("worker")));
    if (conn.write_line(hello.dump())) {
      (void)run_worker(conn, conn, nullptr, cache);
      ++served;
    }
  }
  return served;
}

}  // namespace mfd::svc
