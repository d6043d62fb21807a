// Crash-isolated worker subprocesses for the job service.
//
// WorkerProcess wraps one `mfdft_jobd --worker` child behind a pair of
// pipes: the parent writes one request line to the child's stdin and reads
// one result line from its stdout. Both pipe ends are driven through
// net::FramedConnection — the same line framing the TCP transport uses —
// so reads are nonblocking and line-assembled, and a torn line followed by
// EOF (a worker that died mid-write) is observed as worker loss, never as
// a half-parsed result; the connection's loss_detail() reports the true
// reason (read errno, discarded partial-line bytes) instead of collapsing
// everything into "EOF". Exit statuses are reaped in a way that preserves
// the original crash signal — a worker that already died of SIGABRT is
// never re-killed into looking like SIGKILL — and surface through
// describe_wait_status() into the Status messages of quarantined jobs.
// Spawning uses posix_spawnp; a failed spawn is reported, which lets the
// execution core fall back to in-process execution when no worker can
// start (svc/executor.hpp).
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "net/framed.hpp"

namespace mfd::svc {

/// How to start one worker: argv plus NAME=VALUE pairs appended to (and
/// overriding) the inherited environment.
struct WorkerCommand {
  std::vector<std::string> argv;
  std::vector<std::string> env;
};

/// Human-readable waitpid() status: "exited with status 3" or
/// "killed by signal 6 (Aborted)".
[[nodiscard]] std::string describe_wait_status(int wait_status);

class WorkerProcess {
 public:
  /// Spawns the command with stdin/stdout piped (stderr inherited) and the
  /// stdout end nonblocking. Returns nullptr and fills *error when the
  /// process cannot be started.
  static std::unique_ptr<WorkerProcess> spawn(const WorkerCommand& command,
                                              std::string* error);

  /// Kills and reaps the child if it is still running.
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  /// Writes `line` plus '\n' to the child's stdin. SIGPIPE is suppressed
  /// for the write; false means the child's stdin is gone (worker loss).
  bool send_line(const std::string& line);

  /// The child's stdout (nonblocking). EOF or a failed read means the
  /// worker is lost; its loss_detail() says how.
  [[nodiscard]] net::FramedConnection& output() { return out_; }

  /// Closes the child's stdin so a well-behaved worker drains and exits.
  void close_stdin();

  /// SIGKILLs the child if not yet reaped. Idempotent.
  void kill_now();

  /// Reaps the child, waiting up to `grace_s` seconds before escalating to
  /// SIGKILL, and returns the raw waitpid status. A child that already
  /// exited keeps its true status (crash signal preserved). Idempotent:
  /// later calls return the recorded status.
  int join(double grace_s);

 private:
  WorkerProcess() = default;

  pid_t pid_ = -1;
  net::FramedConnection in_;   ///< Parent writes requests (child stdin).
  net::FramedConnection out_;  ///< Parent reads results (child stdout).
  bool joined_ = false;
  int wait_status_ = 0;
};

}  // namespace mfd::svc
