// daemon: open-loop Poisson arrivals of interactive queries (testgen,
// coverage and diagnosis on 12x12 FPVA arrays sent inline) against a
// loopback svc::JobDaemon whose two executors are kept busy by a bulk
// stream. Each interactive request is its own connection — connect, hello,
// one spec line, one result line — so the net layer, the daemon's
// admission, its priority queue (an interactive query overtakes the waiting
// bulk one) and the per-request codec sit on every latency. The only
// workload through net/ and JobDaemon.
//
// The bulk stream is there for steadiness. On an idle daemon a query's
// latency was mostly how fast the host woke idle vCPUs, which changed with
// its load: under an intermittent CPU hog, five-run quartile spreads reached
// 0.19 (p50) and 0.37 (p90) of the median. With busy executors a query
// waits for the first to finish its bulk query, and latency follows compute
// like wall_s does.
//
// An open loop's wall time is its arrival schedule, so wall_s is measured
// on a closed batch after it instead: the bulk sessions alone, sending the
// query pool many times over. The batch runs in parts, with a set-up sample
// after each.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arch/serialize.hpp"
#include "bench.hpp"
#include "net/framed.hpp"
#include "net/socket.hpp"
#include "svc/daemon.hpp"
#include "svc/run_job.hpp"
#include "workload/family.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mfd::Json;

constexpr int kExecutors = 2;
/// Side of the square FPVA arrays the queries run on.
constexpr int kGrid = 12;
/// Interactive load: about an eighth of what two executors sustain on
/// ~11 ms queries, so two interactive queries seldom meet in the queue. At
/// a quarter (40/s) on an idle daemon ~10% of requests waited for an
/// executor and p90 sat on the knee between waiting and not waiting.
constexpr int kRatePerSecond = 20;
/// p90 keeps 60 samples beyond it.
constexpr int kMinRequests = 600;
/// Bulk sessions, each with one query in flight: both executors busy and
/// one query waiting.
constexpr std::size_t kBulkSessions = 3;
/// The closed batch behind wall_s: each part sends the 36-query pool
/// kBulkSessions times over; 16 parts make 1,728 queries, ~9 s of work for
/// the two executors. Parts took 0.58-0.75 s within one run; their sum
/// spans enough of a shared host's ~1 s fast and slow phases to average
/// them.
constexpr int kBatchParts = 16;
/// Set-up samples taken before the open loop and after it; one more follows
/// each batch part (see setup_seconds).
constexpr int kSetupSamplesPerPoint = 3;
/// A generator whose 99th-percentile send lag exceeds one mean
/// inter-arrival gap has fallen behind its schedule.
constexpr double kBehindSeconds = 1.0 / kRatePerSecond;
/// A request still unanswered after this long counts as failed.
constexpr double kAnswerTimeoutSeconds = 30.0;

struct Inputs {
  std::vector<std::string> chip_texts;
  std::vector<mfd::svc::JobSpec> pool;
  std::vector<std::string> lines;
  std::string hello;
  /// Hello of the background bulk stream (see run_clients).
  std::string bulk_hello;
};

Inputs make_inputs(std::uint64_t family_seed) {
  mfd::workload::FamilySpec family;
  family.name = "query";
  family.kind = "fpva";
  family.count = 12;
  family.seed = family_seed;
  family.rows_min = kGrid;
  family.rows_max = kGrid;
  family.cols_min = kGrid;
  family.cols_max = kGrid;
  family.ports = 4;
  family.mixers = 2;
  family.detectors = 1;
  std::vector<mfd::workload::FamilyMember> members;
  const mfd::Status expanded = mfd::workload::expand_family(family, &members);
  MFD_REQUIRE(expanded.ok(), "daemon family: " + expanded.to_string());

  Inputs inputs;
  for (const mfd::workload::FamilyMember& member : members) {
    inputs.chip_texts.push_back(mfd::arch::chip_to_string(member.chip));
    for (const mfd::svc::JobKind kind :
         {mfd::svc::JobKind::kTestgen, mfd::svc::JobKind::kCoverage,
          mfd::svc::JobKind::kDiagnosis}) {
      mfd::svc::JobSpec spec;
      spec.kind = kind;
      spec.id = member.name + "/" + mfd::svc::to_string(kind);
      spec.chip_text = inputs.chip_texts.back();
      spec.universe = "stuck_at_leakage";
      inputs.lines.push_back(spec.to_json().dump());
      inputs.pool.push_back(std::move(spec));
    }
  }
  const auto hello = [](const char* priority) {
    Json line = Json::object();
    line.set("role", Json(std::string("client")));
    line.set("priority", Json(std::string(priority)));
    return line.dump();
  };
  inputs.hello = hello("interactive");
  inputs.bulk_hello = hello("bulk");
  return inputs;
}

/// Opens a client session (connect + hello) and sends one spec line; the
/// answer is read by the caller. Returns false with *error set on failure.
bool send_request(int port, const std::string& hello, const std::string& line,
                  mfd::net::FramedConnection* conn, double* connect_s,
                  std::string* error) {
  const Clock::time_point t0 = Clock::now();
  *conn = mfd::net::FramedConnection(
      mfd::net::tcp_connect("127.0.0.1", port, error));
  if (!conn->valid() || !conn->write_line(hello)) {
    *error = "connect: " + *error + conn->last_error();
    return false;
  }
  *connect_s = seconds_since(t0);
  if (!conn->write_line(line)) {
    *error = "send: " + conn->last_error();
    return false;
  }
  conn->shutdown_write();
  return true;
}

/// A started daemon with every distinct chip warm in its JobContext.
std::unique_ptr<mfd::svc::JobDaemon> start_daemon(const Inputs& inputs) {
  mfd::svc::DaemonOptions options;
  options.executors = kExecutors;
  auto daemon = std::make_unique<mfd::svc::JobDaemon>(options);
  const mfd::Status started = daemon->start();
  MFD_REQUIRE(started.ok(), "daemon: " + started.to_string());
  // The pool is chip-major: every third spec is a new chip.
  for (std::size_t i = 0; i < inputs.pool.size(); i += 3) {
    mfd::net::FramedConnection conn;
    double connect_s = 0.0;
    std::string error;
    std::string answer;
    const bool sent = send_request(daemon->port(), inputs.hello,
                                   inputs.lines[i], &conn, &connect_s, &error);
    MFD_REQUIRE(sent && conn.read_line(&answer) ==
                            mfd::net::FramedConnection::ReadStatus::kLine,
                "daemon warm-up request failed: " + error);
  }
  return daemon;
}

struct Request {
  int spec = 0;
  double due = 0.0;  // seconds after the schedule origin
  Clock::time_point sent{};
  Clock::time_point done{};
  double connect_s = 0.0;
  /// Line index on its session: 0 on a connection of its own.
  int line = 0;
  bool answered = false;
  /// Whether the answer equals the in-process one. A matching answer is
  /// dropped on arrival, so the benchmark's own buffers stay out of the
  /// process's peak RSS; a differing one is kept for the error message.
  bool matched = false;
  std::string response;
  std::string error;
  std::size_t bytes = 0;
};

/// Seeded open-loop schedule over `seconds` seconds: each second holds
/// exactly kRatePerSecond arrivals at uniform random times (a Poisson
/// process conditioned on its count per second, which keeps the offered
/// load the same in every run). The queries are dealt from a shuffled deck
/// of the pool, so every run sends each query equally often.
std::vector<Request> make_schedule(std::uint64_t seed, int seconds,
                                   int pool_size) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  std::vector<int> deck;
  std::vector<Request> requests;
  for (int second = 0; second < seconds; ++second) {
    std::vector<double> due(kRatePerSecond);
    for (double& t : due) t = second + uniform();
    std::sort(due.begin(), due.end());
    for (const double t : due) {
      if (deck.empty()) {
        for (int spec = 0; spec < pool_size; ++spec) deck.push_back(spec);
        std::shuffle(deck.begin(), deck.end(), rng);
      }
      Request r;
      r.due = t;
      r.spec = deck.back();
      deck.pop_back();
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

Clock::time_point due_time(Clock::time_point origin, const Request& r) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.due));
}

/// The load generator, on the calling thread. It sends the interactive
/// requests in order, each at its due time on a connection of its own,
/// whatever is still in flight. Meanwhile kBulkSessions bulk-class sessions
/// each keep one query in flight, sending the next query of the pool on the
/// same connection when the last is answered, until every interactive
/// request is answered and at least `bulk_count` bulk queries were sent;
/// they are appended to *bulk. Each answer is compared with the expected
/// line of its spec as it arrives. Records one span tree per interactive
/// request when tracing. Returns the origin the due times count from.
Clock::time_point run_clients(int port, const Inputs& inputs,
                              const std::vector<mfd::svc::JobResult>& results,
                              const std::vector<std::string>& expected,
                              std::vector<Request>* requests,
                              std::deque<Request>* bulk,
                              std::size_t bulk_count, Recorder* recorder) {
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(50);
  struct InFlight {
    Request* request;
    /// Bulk session slot, or -1 for a request on a connection of its own.
    int slot;
    mfd::net::FramedConnection conn;
  };
  std::vector<InFlight> pending;
  std::size_t next = 0;
  std::size_t answered = 0;
  // Bulk sessions stay open for the whole loop; a slot is idle when its
  // session is open and has no query in flight.
  std::vector<mfd::net::FramedConnection> sessions;
  std::vector<char> idle;
  std::vector<int> lines_sent;
  std::size_t open_sessions = 0;
  for (std::size_t slot = 0; slot < kBulkSessions; ++slot) {
    std::string error;
    sessions.emplace_back(mfd::net::tcp_connect("127.0.0.1", port, &error));
    const bool open = sessions.back().valid() &&
                      sessions.back().write_line(inputs.bulk_hello);
    if (!open) {
      bulk->emplace_back();
      bulk->back().error = "bulk connect: " + error + sessions.back().last_error();
    }
    idle.push_back(open);
    lines_sent.push_back(0);
    open_sessions += open ? 1 : 0;
  }
  const auto connection = [&](InFlight& flight) -> mfd::net::FramedConnection& {
    return flight.slot < 0 ? flight.conn
                           : sessions[static_cast<std::size_t>(flight.slot)];
  };
  const auto finish = [&](std::size_t k, bool ok, std::string error) {
    Request& r = *pending[k].request;
    r.done = Clock::now();
    r.answered = ok;
    r.error = std::move(error);
    if (ok) {
      const auto spec = static_cast<std::size_t>(r.spec);
      r.bytes = inputs.hello.size() + inputs.lines[spec].size() +
                r.response.size() + 3;
      if (r.line == 0) {
        r.matched = r.response == expected[spec];
      } else {
        mfd::svc::JobResult want = results[spec];
        want.index = r.line;
        r.matched = r.response == want.to_json().dump();
      }
      if (r.matched) std::string().swap(r.response);
    }
    if (pending[k].slot < 0) {
      ++answered;
    } else {
      // A session that lost its answer is not reused.
      idle[static_cast<std::size_t>(pending[k].slot)] = ok;
      if (!ok) --open_sessions;
    }
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
  };
  while (answered < requests->size() ||
         (bulk->size() < bulk_count && open_sessions > 0) || !pending.empty()) {
    while (next < requests->size() &&
           due_time(origin, (*requests)[next]) <= Clock::now()) {
      Request& r = (*requests)[next++];
      r.sent = Clock::now();
      InFlight flight{&r, -1, {}};
      std::string error;
      if (send_request(port, inputs.hello,
                       inputs.lines[static_cast<std::size_t>(r.spec)],
                       &flight.conn, &r.connect_s, &error) &&
          flight.conn.set_nonblocking(true)) {
        pending.push_back(std::move(flight));
      } else {
        r.done = Clock::now();
        r.error = error;
        ++answered;
      }
    }
    for (std::size_t slot = 0; slot < idle.size(); ++slot) {
      if (!idle[slot] ||
          (answered == requests->size() && bulk->size() >= bulk_count)) {
        continue;
      }
      bulk->emplace_back();  // a deque keeps `pending` pointers valid
      Request& r = bulk->back();
      r.spec = static_cast<int>((bulk->size() - 1) % inputs.pool.size());
      r.line = lines_sent[slot]++;
      r.sent = Clock::now();
      // The session reads nonblocking; the line is written blocking.
      mfd::net::FramedConnection& session = sessions[slot];
      idle[slot] = 0;
      if (session.set_nonblocking(false) &&
          session.write_line(inputs.lines[static_cast<std::size_t>(r.spec)]) &&
          session.set_nonblocking(true)) {
        pending.push_back({&r, static_cast<int>(slot), {}});
      } else {
        r.error = "bulk send: " + session.last_error();
        --open_sessions;
      }
    }
    std::vector<pollfd> fds;
    for (InFlight& flight : pending) {
      fds.push_back({connection(flight).fd(), POLLIN, 0});
    }
    const double wait_s =
        next < requests->size()
            ? std::max(0.0, seconds_between(Clock::now(),
                                            due_time(origin, (*requests)[next])))
            : 1.0;
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - static_cast<double>(
                                                      timeout.tv_sec)) * 1e9);
    ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    for (std::size_t k = pending.size(); k-- > 0;) {
      if (fds[k].revents == 0) {
        if (seconds_since(pending[k].request->sent) > kAnswerTimeoutSeconds) {
          finish(k, false, "no answer within the timeout");
        }
        continue;
      }
      mfd::net::FramedConnection& conn = connection(pending[k]);
      const mfd::net::FramedConnection::ReadStatus status =
          conn.read_line(&pending[k].request->response);
      if (status == mfd::net::FramedConnection::ReadStatus::kLine) {
        finish(k, true, "");
      } else if (status != mfd::net::FramedConnection::ReadStatus::kAgain) {
        finish(k, false, "no answer: " + conn.loss_detail());
      }
    }
  }
  for (mfd::net::FramedConnection& session : sessions) session.shutdown_write();
  if (recorder == nullptr) return origin;
  for (std::size_t i = 0; i < requests->size(); ++i) {
    const Request& r = (*requests)[i];
    const std::string id = "req" + std::to_string(i);
    const Clock::time_point connected =
        r.sent + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.connect_s));
    const int root =
        recorder->add("bench.request", id, -1, due_time(origin, r), r.done);
    recorder->add("net.connect", id, root, r.sent, connected);
    recorder->add("svc.exchange", id, root, connected, r.done);
  }
  return origin;
}

/// In-process answers for every pool spec — what the daemon must return.
std::vector<mfd::svc::JobResult> expected_results(const Inputs& inputs) {
  std::vector<mfd::svc::JobResult> results;
  for (const mfd::svc::JobSpec& spec : inputs.pool) {
    results.push_back(mfd::svc::run_job(spec));
  }
  return results;
}

struct LoopSummary {
  std::vector<double> latency_s;
  double lag_median_s = 0.0;
  double lag_p99_s = 0.0;
  double lag_max_s = 0.0;
  double connect_median_s = 0.0;
  double bytes_per_request = 0.0;
};

LoopSummary check_loop(const std::vector<Request>& requests,
                       Clock::time_point origin, Report* report) {
  LoopSummary summary;
  std::vector<double> lags;
  std::vector<double> connects;
  double bytes = 0.0;
  for (const Request& r : requests) {
    ++report->attempted;
    const Clock::time_point due = due_time(origin, r);
    lags.push_back(seconds_between(due, r.sent));
    if (!r.answered) {
      report->fail("request unanswered: " + r.error);
      // A failed request misses every latency limit.
      summary.latency_s.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    if (!r.matched) {
      report->fail("daemon answer differs from run_job: " + r.response);
    }
    summary.latency_s.push_back(seconds_between(due, r.done));
    connects.push_back(r.connect_s);
    bytes += static_cast<double>(r.bytes);
  }
  summary.lag_median_s = median(lags);
  summary.lag_p99_s = quantile(lags, 0.99);
  summary.lag_max_s = *std::max_element(lags.begin(), lags.end());
  summary.connect_median_s = median(connects);
  summary.bytes_per_request = bytes / static_cast<double>(requests.size());
  return summary;
}

/// Checks bulk queries: every one answered, and with the in-process
/// answer. Returns the time from the first send to the last answer.
double check_bulk(const std::deque<Request>& bulk, Report* report) {
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (const Request& r : bulk) {
    ++report->attempted;
    first = std::min(first, r.sent);
    last = std::max(last, r.done);
    if (!r.answered) {
      report->fail("bulk request unanswered: " + r.error);
    } else if (!r.matched) {
      report->fail("daemon answer differs from run_job: " + r.response);
    }
  }
  return bulk.empty() ? 0.0 : seconds_between(first, last);
}

void stamp_generator(const LoopSummary& loop, Report* report) {
  report->stamp.set("generator_lag_median_ms", Json(1e3 * loop.lag_median_s));
  report->stamp.set("generator_lag_p99_ms", Json(1e3 * loop.lag_p99_s));
  report->stamp.set("generator_lag_max_ms", Json(1e3 * loop.lag_max_s));
  const bool behind = loop.lag_p99_s > kBehindSeconds;
  report->stamp.set("generator_behind", Json(behind));
  if (behind) {
    report->notes.push_back(
        "WARNING: the load generator fell behind its schedule (p99 lag " +
        std::to_string(1e3 * loop.lag_p99_s) + " ms)");
  }
}

}  // namespace

Report run_daemon(const Args& args) {
  Report report;
  report.stamp.set("executors", Json(kExecutors));
  report.stamp.set("client_threads", Json(1));
  report.stamp.set("bulk_sessions",
                   Json(static_cast<std::int64_t>(kBulkSessions)));
  report.stamp.set("grid", Json(kGrid));
  report.stamp.set("rate_per_s", Json(kRatePerSecond));
  report.stamp.set("family_seed",
                   Json(static_cast<std::int64_t>(args.family_seed)));
  report.stamp.set("arrival_seed",
                   Json(static_cast<std::int64_t>(args.arrival_seed)));

  // Set-up: inputs, daemon start and one warm-up request per chip. The
  // first daemon serves the measurement; each later sample starts and stops
  // a daemon of its own while the measured one is idle.
  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  const Inputs inputs = make_inputs(args.family_seed);
  const std::unique_ptr<mfd::svc::JobDaemon> daemon = start_daemon(inputs);
  setup_s.push_back(seconds_since(t0));
  const auto sample_setup = [&](int samples) {
    for (int k = 0; k < samples; ++k) {
      t0 = Clock::now();
      const Inputs again = make_inputs(args.family_seed);
      const std::unique_ptr<mfd::svc::JobDaemon> other = start_daemon(again);
      setup_s.push_back(seconds_since(t0));
      other->stop();
    }
  };

  // Long enough for kMinRequests even when --seconds is short.
  const int seconds = std::max(
      static_cast<int>(args.seconds),
      (kMinRequests + kRatePerSecond - 1) / kRatePerSecond);
  const int pool = static_cast<int>(inputs.pool.size());
  // What the daemon must answer, computed in-process before the clients run.
  const std::vector<mfd::svc::JobResult> results = expected_results(inputs);
  std::vector<std::string> expected;
  for (const mfd::svc::JobResult& r : results) expected.push_back(r.to_json().dump());

  if (!args.trace) {
    sample_setup(kSetupSamplesPerPoint - 1);
    std::vector<Request> requests = make_schedule(args.arrival_seed, seconds, pool);
    std::deque<Request> bulk;
    const Clock::time_point origin = run_clients(
        daemon->port(), inputs, results, expected, &requests, &bulk, 0, nullptr);
    sample_setup(kSetupSamplesPerPoint);
    std::vector<Request> no_requests;
    std::vector<std::deque<Request>> parts(kBatchParts);
    for (std::deque<Request>& part : parts) {
      run_clients(daemon->port(), inputs, results, expected, &no_requests,
                  &part, kBulkSessions * inputs.pool.size(), nullptr);
      sample_setup(1);
    }
    const mfd::svc::DaemonMetrics metrics = daemon->metrics();
    daemon->stop();
    const LoopSummary loop = check_loop(requests, origin, &report);
    check_bulk(bulk, &report);
    report.stamp.set("bulk_requests",
                     Json(static_cast<std::int64_t>(bulk.size())));
    double batch_s = 0.0;
    Json part_s = Json::array();
    for (const std::deque<Request>& part : parts) {
      const double s = check_bulk(part, &report);
      part_s.push_back(Json(s));
      batch_s += s;
    }
    if (metrics.jobs_shed != 0) {
      report.fail(std::to_string(metrics.jobs_shed) + " requests shed");
    }
    stamp_generator(loop, &report);
    report.stamp.set("requests",
                     Json(static_cast<std::int64_t>(requests.size())));
    report.stamp.set("batch_requests",
                     Json(static_cast<std::int64_t>(kBatchParts * parts[0].size())));
    report.stamp.set("batch_part_s", std::move(part_s));
    report.stamp.set("setup_samples",
                     Json(static_cast<std::int64_t>(setup_s.size())));
    Json tail = Json::object();
    for (const auto& [name, q] : {std::pair{"p95", 0.95}, std::pair{"p99", 0.99},
                                  std::pair{"p99.9", 0.999}, std::pair{"max", 1.0}}) {
      tail.set(name, Json(1e3 * quantile(loop.latency_s, q)));
    }
    report.stamp.set("latency_ms", std::move(tail));
    report.add("wall_s", batch_s, "s");
    report.add("p50_ms", 1e3 * quantile(loop.latency_s, 0.50), "ms");
    report.add("p90_ms", 1e3 * quantile(loop.latency_s, 0.90), "ms");
    report.add("setup_s", setup_seconds(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced mode: the open loop, its spans recorded after it finishes from
  // the timestamps an untraced run takes as well; then the in-process
  // baseline and the layer probes.
  Recorder recorder;
  std::vector<Request> traced = make_schedule(args.arrival_seed, seconds, pool);
  std::deque<Request> traced_bulk;
  const Clock::time_point traced_origin =
      run_clients(daemon->port(), inputs, results, expected, &traced,
                  &traced_bulk, 0, &recorder);
  const mfd::svc::DaemonMetrics metrics = daemon->metrics();
  daemon->stop();

  const LoopSummary traced_loop = check_loop(traced, traced_origin, &report);
  check_bulk(traced_bulk, &report);
  report.stamp.set("bulk_requests",
                   Json(static_cast<std::int64_t>(traced_bulk.size())));
  stamp_generator(traced_loop, &report);

  // In-process run time of each spec on a warm context, the daemon's own
  // compute; what the latency adds on top is the service overhead, the wait
  // for an executor to finish its bulk query included.
  mfd::svc::JobContext context;
  std::vector<double> inproc_s(inputs.pool.size());
  for (std::size_t k = 0; k < inputs.pool.size(); ++k) {
    std::vector<double> runs;
    for (int rep = 0; rep < 4; ++rep) {
      t0 = Clock::now();
      const auto s = span(&recorder, "svc.run_job", "spec" + std::to_string(k));
      (void)mfd::svc::run_job(inputs.pool[k], nullptr, nullptr, &context);
      if (rep > 0) runs.push_back(seconds_since(t0));  // rep 0 warms the context
    }
    inproc_s[k] = median(runs);
  }
  std::vector<double> overhead_s;
  for (const Request& r : traced) {
    if (r.answered) {
      overhead_s.push_back(seconds_between(due_time(traced_origin, r), r.done) -
                           inproc_s[static_cast<std::size_t>(r.spec)]);
    }
  }

  LayerProbe probe;
  probe_chips(inputs.chip_texts, mfd::sim::FaultUniverse::kStuckAtAndLeakage,
              &recorder, &probe);
  LayerProbe repeat_probe;
  probe_chips(inputs.chip_texts, mfd::sim::FaultUniverse::kStuckAtAndLeakage,
              nullptr, &repeat_probe);
  probe_codec(inputs.lines, results, &recorder, &probe);

  // No library code reports ilp, sched or core counts here; they stay 0.
  LayerCounts counts;
  counts.svc_jobs_shed = metrics.jobs_shed;
  counts.net_bytes_per_request = traced_loop.bytes_per_request;
  // Nothing is traced inside the timed window, so tracing adds nothing.
  add_layer_metrics(counts, probe, 0.0, &report);

  char line[256];
  std::snprintf(line, sizeof line,
                "daemon layers: svc.overhead_ms=%.4f net.connect_ms=%.4f "
                "p50_ms=%.4f (n=%d)",
                1e3 * median(overhead_s), 1e3 * traced_loop.connect_median_s,
                1e3 * quantile(traced_loop.latency_s, 0.50),
                static_cast<int>(traced.size()));
  report.notes.push_back(line);
  note_self_times(recorder, &report);
  check_repeat(deterministic_counts(counts, probe),
               deterministic_counts(counts, repeat_probe), &report);
  recorder.write_jsonl(args.state_dir + "/trace-daemon.jsonl");
  return report;
}

}  // namespace perfbench
