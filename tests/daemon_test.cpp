// Networked JobDaemon acceptance tests: a client stream over loopback TCP
// must come back byte-identical to a local run_jobd() — regardless of
// executor count, queue discipline (strict / FIFO / aged priority), remote
// workers, or which peer finished which job first — and the daemon's
// overload / worker-loss policies must answer with typed kUnavailable
// results instead of hanging or dropping jobs.
#include "svc/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "arch/chips.hpp"
#include "arch/serialize.hpp"
#include "common/json.hpp"
#include "net/framed.hpp"
#include "net/socket.hpp"
#include "svc/job.hpp"
#include "svc/jobd.hpp"

namespace mfd::svc {
namespace {

/// Mixed-class workload: interactive kinds (testgen/coverage/diagnosis)
/// across the benchmark chips. Codesign is deliberately absent — these
/// tests exercise transport and scheduling, not the PSO.
std::string mixed_jobs_jsonl() {
  std::string lines;
  for (const char* chip : {"figure4_chip", "IVD_chip", "RA30_chip"}) {
    for (const JobKind kind :
         {JobKind::kTestgen, JobKind::kCoverage, JobKind::kDiagnosis}) {
      JobSpec spec;
      spec.kind = kind;
      spec.id = std::string(to_string(kind)) + ":" + chip;
      spec.chip = chip;
      lines += spec.to_json().dump() + "\n";
    }
  }
  return lines;
}

/// The same workload plus the parse-slot edge cases run_jobd() defines:
/// a blank line (skipped but counted in line numbers) and a malformed line
/// (answered in place as kInvalidOptions stage "parse").
std::string jobs_with_parse_edges_jsonl() {
  std::string lines = mixed_jobs_jsonl();
  lines += "\n";                     // blank: skipped, advances line count
  lines += "{\"kind\": \"nope\"}\n"; // malformed: answered in its slot
  JobSpec tail;
  tail.kind = JobKind::kTestgen;
  tail.id = "tail";
  tail.chip = "figure4_chip";
  lines += tail.to_json().dump() + "\n";
  return lines;
}

/// Local ground truth for any input, byte for byte.
std::string jobd_baseline(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::ostringstream out;
  (void)run_jobd(in, out);
  return out.str();
}

/// Runs one client stream against a daemon; returns the bytes read back.
std::string client_bytes(int port, const std::string& jsonl,
                         const std::string& priority = "",
                         Status* status_out = nullptr) {
  JobdOptions options;
  options.connect = ClientOptions{};
  options.connect->port = port;
  options.connect->priority = priority;
  options.connect->connect_base_s = 0.01;
  std::istringstream in(jsonl);
  std::ostringstream out;
  const Status status = run_jobd(in, out, options).connection;
  if (status_out != nullptr) {
    *status_out = status;
  } else {
    EXPECT_TRUE(status.ok()) << status.to_string();
  }
  return out.str();
}

DaemonOptions fast_daemon_options() {
  DaemonOptions options;
  options.executors = 1;
  options.backoff_base_s = 0.01;
  options.backoff_max_s = 0.05;
  return options;
}

/// Serves the daemon on `port` as a remote worker, reconnecting briefly.
void serve_as_worker(int port) {
  ClientOptions daemon;
  daemon.port = port;
  daemon.connect_attempts = 3;
  daemon.connect_base_s = 0.01;
  daemon.connect_max_s = 0.05;
  (void)run_daemon_worker(daemon);
}

/// Waits (bounded) until `predicate` holds over the daemon's metrics.
template <typename Predicate>
bool wait_for_metrics(const JobDaemon& daemon, Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate(daemon.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(JobDaemon, RejectsInvalidOptions) {
  DaemonOptions options;
  options.port = -1;
  options.queue_capacity = 0;
  options.executors = kMaxThreads + 1;  // rejected before any thread starts
  JobDaemon daemon(options);
  const Status status = daemon.start();
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_NE(status.message.find("port"), std::string::npos);
  EXPECT_NE(status.message.find("queue_capacity"), std::string::npos);
  EXPECT_NE(status.message.find("executors"), std::string::npos);
}

TEST(JobDaemon, LoopbackClientMatchesLocalRunByteForByte) {
  // The acceptance criterion: same bytes as run_jobd() over the socket,
  // malformed and blank lines included, for every executor count and every
  // queue discipline.
  const std::string jsonl = jobs_with_parse_edges_jsonl();
  const std::string baseline = jobd_baseline(jsonl);
  ASSERT_FALSE(baseline.empty());

  const double disciplines[] = {-1.0, 0.0, 5.0};  // strict / FIFO / aged
  for (const int executors : {1, 4}) {
    for (const double age_promote_s : disciplines) {
      DaemonOptions options = fast_daemon_options();
      options.executors = executors;
      options.age_promote_s = age_promote_s;
      JobDaemon daemon(options);
      ASSERT_TRUE(daemon.start().ok());
      EXPECT_EQ(client_bytes(daemon.port(), jsonl), baseline)
          << "executors=" << executors << " age_promote_s=" << age_promote_s;
      daemon.stop();

      const ServiceMetrics metrics = daemon.metrics();
      EXPECT_EQ(metrics.clients_served, 1);
      EXPECT_EQ(metrics.jobs_total, 11);  // 9 + malformed + tail
      EXPECT_EQ(metrics.parse_errors, 1);
      EXPECT_EQ(metrics.jobs_admitted, 10);
      EXPECT_EQ(metrics.jobs_shed, 0);
    }
  }
}

TEST(JobDaemon, PriorityHintRoutesWholeStreamToBulkClass) {
  const std::string jsonl = mixed_jobs_jsonl();
  const std::string baseline = jobd_baseline(jsonl);

  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  // The hello's priority covers specs without one — and scheduling class
  // must never leak into result bytes.
  EXPECT_EQ(client_bytes(daemon.port(), jsonl, "bulk"), baseline);
  daemon.stop();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.admitted_bulk, 9);
  EXPECT_EQ(metrics.admitted_interactive, 0);
}

TEST(JobDaemon, SpecPriorityOverridesHelloHint) {
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.id = "pinned";
  spec.chip = "figure4_chip";
  spec.priority = "interactive";
  const std::string jsonl = spec.to_json().dump() + "\n";
  const std::string baseline = jobd_baseline(jsonl);

  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_EQ(client_bytes(daemon.port(), jsonl, "bulk"), baseline);
  daemon.stop();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.admitted_interactive, 1);
  EXPECT_EQ(metrics.admitted_bulk, 0);
}

TEST(JobDaemon, ConcurrentClientsEachGetTheirOwnOrderedStream) {
  // Two clients with different batches share one daemon (and its queue and
  // executors); each must read exactly its own local-run bytes.
  const std::string jsonl_a = mixed_jobs_jsonl();
  std::string jsonl_b;
  for (const char* chip : {"RA30_chip", "figure4_chip"}) {
    JobSpec spec;
    spec.kind = JobKind::kDiagnosis;
    spec.id = std::string("b:") + chip;
    spec.chip = chip;
    jsonl_b += spec.to_json().dump() + "\n";
  }
  const std::string baseline_a = jobd_baseline(jsonl_a);
  const std::string baseline_b = jobd_baseline(jsonl_b);

  DaemonOptions options = fast_daemon_options();
  options.executors = 2;
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  std::string bytes_a;
  std::string bytes_b;
  std::thread client_a(
      [&] { bytes_a = client_bytes(daemon.port(), jsonl_a, "interactive"); });
  std::thread client_b(
      [&] { bytes_b = client_bytes(daemon.port(), jsonl_b, "bulk"); });
  client_a.join();
  client_b.join();
  daemon.stop();

  EXPECT_EQ(bytes_a, baseline_a);
  EXPECT_EQ(bytes_b, baseline_b);
  EXPECT_EQ(daemon.metrics().clients_served, 2);
}

TEST(JobDaemon, RemoteWorkerOnlyDaemonMatchesLocalRun) {
  // executors = 0: every job must flow over the second TCP hop to the
  // remote worker and come back byte-identical anyway.
  const std::string jsonl = mixed_jobs_jsonl();
  const std::string baseline = jobd_baseline(jsonl);

  DaemonOptions options = fast_daemon_options();
  options.executors = 0;
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  std::thread worker([port = daemon.port()] {
    serve_as_worker(port);
  });

  const std::string bytes = client_bytes(daemon.port(), jsonl);
  daemon.stop();
  worker.join();

  EXPECT_EQ(bytes, baseline);
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.jobs_total, 9);
  EXPECT_EQ(metrics.jobs_remote, 9);
  EXPECT_GE(metrics.workers_joined, 1);
}

/// Hand-rolled misbehaving worker: joins the pool, takes one job, then
/// hangs up without answering (a mid-job crash as the daemon sees it).
void crash_after_one_request(int port) {
  std::string error;
  const int fd = net::tcp_connect("127.0.0.1", port, &error);
  ASSERT_GE(fd, 0) << error;
  net::FramedConnection conn(fd);
  Json hello = Json::object();
  hello.set("role", Json(std::string("worker")));
  ASSERT_TRUE(conn.write_line(hello.dump()));
  std::string request;
  ASSERT_EQ(conn.read_line(&request),
            net::FramedConnection::ReadStatus::kLine);
  conn.close();  // vanish with the job in flight
}

TEST(JobDaemon, JobLostToACrashedWorkerIsRetriedElsewhere) {
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.id = "survivor";
  spec.chip = "figure4_chip";
  const std::string jsonl = spec.to_json().dump() + "\n";
  const std::string baseline = jobd_baseline(jsonl);

  DaemonOptions options = fast_daemon_options();
  options.executors = 0;  // only remote workers can serve
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  // The crashing worker is connected before the client submits, so it is
  // the only consumer when the job arrives.
  std::thread crasher([&] { crash_after_one_request(daemon.port()); });
  std::string bytes;
  std::thread client([&] { bytes = client_bytes(daemon.port(), jsonl); });
  crasher.join();

  // After the loss is detected the job is requeued; a healthy worker then
  // joins and completes it — invisibly, as far as result bytes go.
  ASSERT_TRUE(wait_for_metrics(
      daemon, [](const ServiceMetrics& m) { return m.workers_lost >= 1; }));
  std::thread worker([port = daemon.port()] {
    serve_as_worker(port);
  });
  client.join();
  daemon.stop();
  worker.join();

  EXPECT_EQ(bytes, baseline);
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.workers_lost, 1);
  EXPECT_EQ(metrics.jobs_retried, 1);
  EXPECT_EQ(metrics.jobs_quarantined, 0);
  EXPECT_EQ(metrics.jobs_total, 1);
  EXPECT_EQ(metrics.jobs_remote, 1);
}

TEST(JobDaemon, ExhaustedRemoteAttemptsQuarantineTheJob) {
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.id = "doomed";
  spec.chip = "figure4_chip";
  const std::string jsonl = spec.to_json().dump() + "\n";

  DaemonOptions options = fast_daemon_options();
  options.executors = 0;
  options.max_attempts = 1;  // one loss is final
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  std::thread crasher([&] { crash_after_one_request(daemon.port()); });
  std::string bytes;
  std::thread client([&] { bytes = client_bytes(daemon.port(), jsonl); });
  crasher.join();
  client.join();
  daemon.stop();

  // The client still gets a complete, typed answer in the job's slot.
  std::istringstream lines(bytes);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const JobResult result = JobResult::from_json(Json::parse(line));
  EXPECT_EQ(result.index, 0);
  EXPECT_EQ(result.id, "doomed");
  EXPECT_EQ(result.status.outcome, Outcome::kUnavailable);
  EXPECT_EQ(result.status.stage, "worker");
  EXPECT_NE(result.status.message.find("quarantined after 1 remote-worker"),
            std::string::npos);
  EXPECT_EQ(daemon.metrics().jobs_quarantined, 1);
}

TEST(JobDaemon, OverloadShedsWithTypedUnavailableInInputOrder) {
  // capacity 1, no consumers: the first job parks in the queue, the rest
  // shed immediately; stop() sheds the parked one. The client still reads
  // one typed result per input line, in input order.
  std::string jsonl;
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.kind = JobKind::kTestgen;
    spec.id = "job-" + std::to_string(i);
    spec.chip = "figure4_chip";
    jsonl += spec.to_json().dump() + "\n";
  }

  DaemonOptions options = fast_daemon_options();
  options.executors = 0;  // nobody pops
  options.queue_capacity = 1;
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  std::string bytes;
  std::thread client([&] { bytes = client_bytes(daemon.port(), jsonl); });
  ASSERT_TRUE(wait_for_metrics(
      daemon, [](const ServiceMetrics& m) { return m.jobs_shed >= 2; }));
  daemon.stop();
  client.join();

  std::istringstream lines(bytes);
  std::string line;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "missing result " << i;
    const JobResult result = JobResult::from_json(Json::parse(line));
    EXPECT_EQ(result.index, i);
    EXPECT_EQ(result.id, "job-" + std::to_string(i));
    EXPECT_EQ(result.status.outcome, Outcome::kUnavailable);
    EXPECT_EQ(result.status.stage, "admission");
  }
  EXPECT_FALSE(std::getline(lines, line));
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.jobs_shed, 3);
  EXPECT_EQ(metrics.jobs_total, 3);
  EXPECT_EQ(metrics.clients_served, 1);
}

TEST(JobDaemon, MixedStreamCountsEveryResultInOneBucket) {
  // Two jobs park in a queue of two, the third is shed and a malformed line
  // is answered in place; then a remote worker runs the parked two. Daemon
  // and client count the same four results, once each.
  std::string jsonl;
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.kind = JobKind::kTestgen;
    spec.id = "job-" + std::to_string(i);
    spec.chip = "figure4_chip";
    jsonl += spec.to_json().dump() + "\n";
  }
  jsonl += "{\"kind\": \"nope\"}\n";

  DaemonOptions options = fast_daemon_options();
  options.executors = 0;  // nothing runs until the worker joins
  options.queue_capacity = 2;
  JobDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  ServiceMetrics client;
  Status status;
  std::thread client_thread([&] {
    JobdOptions client_options;
    client_options.connect = ClientOptions{};
    client_options.connect->port = daemon.port();
    client_options.connect->connect_base_s = 0.01;
    std::istringstream in(jsonl);
    std::ostringstream out;
    const JobdReport report = run_jobd(in, out, client_options);
    status = report.connection;
    client = report.metrics;
  });
  EXPECT_TRUE(wait_for_metrics(daemon, [](const ServiceMetrics& m) {
    return m.jobs_shed == 1 && m.parse_errors == 1;
  }));
  std::thread worker([port = daemon.port()] {
    serve_as_worker(port);
  });
  client_thread.join();
  daemon.stop();
  worker.join();
  ASSERT_TRUE(status.ok()) << status.to_string();

  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.jobs_total, 4);
  EXPECT_EQ(metrics.jobs_ok, 2);
  EXPECT_EQ(metrics.jobs_failed, 2);  // the shed and the parse error
  EXPECT_EQ(metrics.jobs_ok + metrics.jobs_stopped + metrics.jobs_failed,
            metrics.jobs_total);
  EXPECT_EQ(metrics.jobs_admitted, 2);
  EXPECT_EQ(metrics.jobs_remote, 2);
  EXPECT_EQ(metrics.clients_served, 1);

  EXPECT_EQ(client.jobs_total, metrics.jobs_total);
  EXPECT_EQ(client.jobs_ok, metrics.jobs_ok);
  EXPECT_EQ(client.jobs_stopped, metrics.jobs_stopped);
  EXPECT_EQ(client.jobs_failed, metrics.jobs_failed);
  EXPECT_EQ(client.parse_errors, 1);
  EXPECT_GT(client.wall_seconds, 0.0);
}

/// Threads of this process (the daemon under test runs in it).
int thread_count() {
  int threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

/// A /proc/self/status field of this process in KiB ("VmSize:", "VmRSS:").
long status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    long value = 0;
    if (key == field && status >> value) return value;
    std::string rest;
    std::getline(status, rest);
  }
  return -1;
}

/// Opens a client connection and sends its hello.
net::FramedConnection open_client(int port) {
  std::string error;
  net::FramedConnection conn(net::tcp_connect("127.0.0.1", port, &error));
  EXPECT_TRUE(conn.valid()) << error;
  EXPECT_TRUE(conn.write_line("{\"role\":\"client\"}"));
  return conn;
}

/// One request on a connection of its own: hello, one line, half-close,
/// then every line the daemon answers until it closes.
std::vector<std::string> one_shot(int port, const std::string& line) {
  net::FramedConnection conn = open_client(port);
  EXPECT_TRUE(conn.write_line(line));
  conn.shutdown_write();
  std::vector<std::string> answers;
  std::string answer;
  while (conn.read_line(&answer) == net::FramedConnection::ReadStatus::kLine) {
    answers.push_back(answer);
  }
  return answers;
}

TEST(JobDaemon, IdleConnectionsOwnNoThreads) {
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  const int before = thread_count();
  std::vector<net::FramedConnection> idle;
  for (int i = 0; i < 64; ++i) idle.push_back(open_client(daemon.port()));
  // A request after the hellos: once it is answered, the daemon has read
  // every earlier hello too.
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.chip = "figure4_chip";
  ASSERT_EQ(one_shot(daemon.port(), spec.to_json().dump()).size(), 1u);
  EXPECT_LT(thread_count() - before, 8);
  idle.clear();
  daemon.stop();
  EXPECT_EQ(daemon.metrics().clients_served, 65);
}

TEST(JobDaemon, EveryConnectionGetsOneWellFormedResultAndLeavesNothing) {
  // Each request on its own connection gets exactly one well-formed result,
  // and a connection served leaves no thread or stack behind: 400 of them
  // grow the address space by far less than one thread stack each.
  JobSpec spec;
  spec.kind = JobKind::kTestgen;
  spec.chip = "figure4_chip";
  const std::string line = spec.to_json().dump();
  const std::string expected = jobd_baseline(line + "\n");

  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  for (int i = 0; i < 8; ++i) (void)one_shot(daemon.port(), line);  // warm
  const long before_kb = status_kb("VmSize:");
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 400; ++i) {
    const std::vector<std::string> answers = one_shot(daemon.port(), line);
    ASSERT_EQ(answers.size(), 1u) << "connection " << i;
    ASSERT_EQ(answers[0] + "\n", expected) << "connection " << i;
  }
  EXPECT_LT(status_kb("VmSize:") - before_kb, 64 * 1024);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().clients_served, 408);
  EXPECT_EQ(daemon.metrics().jobs_total, 408);
}

TEST(JobDaemon, DistinctInlineChipsKeepNoTextWarm) {
  // The daemon's JobContext keys parsed chips by a content hash of their
  // text, so 200 chips that differ only in a 256 KiB comment keep 200
  // small parsed chips warm and none of the 50 MiB of text.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's quarantine keeps every freed line resident";
#endif
  const std::string chip = arch::chip_to_string(arch::make_figure4_chip());
  const std::string padding(256 * 1024, 'x');
  const auto line_for = [&](int i) {
    JobSpec spec;
    spec.kind = JobKind::kTestgen;
    spec.chip_text = chip + "# " + std::to_string(i) + padding + "\n";
    return spec.to_json().dump();
  };
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  const std::vector<std::string> first = one_shot(daemon.port(), line_for(-1));
  ASSERT_EQ(first.size(), 1u);
  for (int i = 0; i < 8; ++i) (void)one_shot(daemon.port(), line_for(-2 - i));
  const long before_kb = status_kb("VmRSS:");
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::string> answers =
        one_shot(daemon.port(), line_for(i));
    ASSERT_EQ(answers.size(), 1u) << "job " << i;
    ASSERT_EQ(answers[0], first[0]) << "job " << i;
  }
  EXPECT_LT(status_kb("VmRSS:") - before_kb, 16 * 1024);
  daemon.stop();
  EXPECT_EQ(daemon.metrics().jobs_ok, 209);
}

TEST(JobDaemon, ParseErrorsCarryTheLinesKindAndIdAsInABatch) {
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"kind\":\"codesign\",\"id\":\"c1\",\"chip\":\"IVD_chip\","
       "\"assay\":\"IVD\",\"config_pool_size\":-4294967295}",
       "codesign"},
      {"{\"kind\":\"coverage\",\"id\":\"v1\",\"chip\":\"IVD_chip\","
       "\"frob\":1}",
       "coverage"},
      {"not json", "testgen"}};
  for (const auto& [line, kind] : cases) {
    const std::vector<std::string> answers = one_shot(daemon.port(), line);
    ASSERT_EQ(answers.size(), 1u) << line;
    // The daemon answers the line as a local batch does, byte for byte.
    EXPECT_EQ(answers[0] + "\n", jobd_baseline(line + "\n")) << line;
    const JobResult result = JobResult::from_json(Json::parse(answers[0]));
    EXPECT_EQ(result.status.stage, "parse") << answers[0];
    EXPECT_EQ(to_string(result.kind), kind) << answers[0];
  }
  daemon.stop();
  EXPECT_EQ(daemon.metrics().parse_errors, 3);
}

TEST(JobDaemon, DeeplyNestedLineGetsAParseResultAndTheDaemonKeepsServing) {
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  const std::vector<std::string> answers =
      one_shot(daemon.port(), std::string(100000, '['));
  ASSERT_EQ(answers.size(), 1u);
  const JobResult result = JobResult::from_json(Json::parse(answers[0]));
  EXPECT_EQ(result.status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(result.status.stage, "parse");
  EXPECT_NE(result.status.message.find("nesting"), std::string::npos)
      << result.status.message;

  const std::string jsonl = mixed_jobs_jsonl();
  EXPECT_EQ(client_bytes(daemon.port(), jsonl), jobd_baseline(jsonl));
  daemon.stop();
  EXPECT_EQ(daemon.metrics().parse_errors, 1);
}

TEST(JobDaemon, OverlongLineDropsOnlyThatConnection) {
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  net::FramedConnection conn = open_client(daemon.port());
  // Past the line cap without a newline: the daemon drops the connection
  // instead of buffering on, and the client reads EOF with no result.
  const std::string chunk(1 << 20, 'x');
  std::size_t sent = 0;
  while (sent <= net::FramedConnection::kMaxLineBytes) {
    const ssize_t n = ::send(conn.fd(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  // Bounded wait: a daemon that kept buffering would leave this read
  // hanging; the timeout turns that into kAgain and a failure.
  const struct timeval timeout = {10, 0};
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  std::string line;
  const net::FramedConnection::ReadStatus status = conn.read_line(&line);
  EXPECT_TRUE(status == net::FramedConnection::ReadStatus::kEof ||
              status == net::FramedConnection::ReadStatus::kError);

  const std::string jsonl = mixed_jobs_jsonl();
  EXPECT_EQ(client_bytes(daemon.port(), jsonl), jobd_baseline(jsonl));
  daemon.stop();
}

TEST(JobDaemon, AClientThatNeverReadsDelaysNoOtherClient) {
  // One client floods malformed lines, each answered in place, and never
  // reads an answer. Once its unsent answers fill the socket, the daemon
  // stops reading it; every other client is still answered at once.
  JobDaemon daemon(fast_daemon_options());
  ASSERT_TRUE(daemon.start().ok());
  net::FramedConnection flooder = open_client(daemon.port());
  std::thread flood([fd = flooder.fd()] {
    std::string lines;
    for (int i = 0; i < 4096; ++i) lines += "x\n";
    while (::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  // Wait until the flood stalls: no new answer for half a second.
  std::int64_t answered = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::int64_t now = daemon.metrics().parse_errors;
    if (now > 0 && now == answered) break;
    answered = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  EXPECT_GT(answered, 0);

  const auto start = std::chrono::steady_clock::now();
  net::FramedConnection client = open_client(daemon.port());
  // Bounded: a daemon stuck on the flooder would leave this read hanging.
  const struct timeval timeout = {10, 0};
  EXPECT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  EXPECT_TRUE(client.write_line("{\"kind\": \"nope\"}"));
  client.shutdown_write();
  std::string answer;
  const net::FramedConnection::ReadStatus status = client.read_line(&answer);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  ::shutdown(flooder.fd(), SHUT_RDWR);  // ends the blocked flood
  flood.join();
  flooder.close();

  ASSERT_EQ(status, net::FramedConnection::ReadStatus::kLine);
  EXPECT_EQ(JobResult::from_json(Json::parse(answer)).status.stage, "parse");
  EXPECT_LT(waited, 2.0);
  daemon.stop();
}

TEST(JobDaemon, ClientFailsTypedWhenNoDaemonListens) {
  // Grab a port that is certainly closed by binding and releasing it.
  std::string error;
  const int fd = net::tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_GE(fd, 0) << error;
  const int dead_port = net::bound_port(fd);
  ::close(fd);

  JobdOptions options;
  options.connect = ClientOptions{};
  options.connect->port = dead_port;
  options.connect->connect_attempts = 2;
  options.connect->connect_base_s = 0.01;
  options.connect->connect_max_s = 0.02;
  std::istringstream in("{}\n");
  std::ostringstream out;
  const Status status = run_jobd(in, out, options).connection;
  EXPECT_EQ(status.outcome, Outcome::kUnavailable);
  EXPECT_EQ(status.stage, "client");
  EXPECT_EQ(status.message.find("cannot connect to"), 0u) << status.message;
  EXPECT_EQ(status.message.rfind("cannot connect to"), 0u) << status.message;
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace mfd::svc
