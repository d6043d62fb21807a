// The batch plumbing mfdft_jobd and mfdft_campaign share: the flags both
// take, the checks after parsing, the SIGINT/SIGTERM drain and the exit
// status read from a JobdReport. A check that fails prints one line naming
// what failed; the caller then exits 2.
#pragma once

#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/run_control.hpp"
#include "flags.hpp"
#include "net/socket.hpp"
#include "svc/jobd.hpp"

namespace mfd::tools {

/// Path of this binary, from /proc/self/exe; `argv0` when /proc is
/// unavailable. Worker subprocesses are spawned from it or beside it.
inline std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return argv0;
  return std::string(buffer, static_cast<std::size_t>(n));
}

/// Parses the HOST:PORT value of `flag`. False after a line naming both.
inline bool parse_endpoint(const char* argv0, const char* flag,
                           const std::string& spec, net::Endpoint* out) {
  std::string error;
  if (net::parse_host_port(spec, out, &error)) return true;
  std::fprintf(stderr, "%s: bad %s spec '%s': %s\n", argv0, flag,
               spec.c_str(), error.c_str());
  return false;
}

namespace detail {
/// The drain's control: request_cancel() is a single atomic store, so the
/// signal handler may call it.
inline RunControl drain_control;
inline void request_drain(int) { drain_control.request_cancel(); }
}  // namespace detail

struct BatchFlags {
  svc::JobdOptions options;
  /// --connect HOST:PORT and --priority CLASS, as given.
  std::string connect;
  std::string priority;

  /// Takes `arg`, and its value, when it is one of the flags both tools
  /// take: --threads --workers --cache-dir --cache-mb --journal --resume
  /// --connect --priority. False when it is none of them; *ok turns false
  /// when its value is missing or malformed.
  bool take(Flags& flags, const std::string& arg, bool* ok) {
    if (arg == "--threads") {
      *ok = flags.take(&options.threads);
    } else if (arg == "--workers") {
      *ok = flags.take(&options.workers);
    } else if (arg == "--cache-dir") {
      *ok = flags.take(&options.cache_dir);
    } else if (arg == "--cache-mb") {
      *ok = flags.take(&options.cache_mb);
    } else if (arg == "--journal") {
      *ok = flags.take(&options.journal_dir);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--connect") {
      *ok = flags.take(&connect);
    } else if (arg == "--priority") {
      *ok = flags.take(&priority);
    } else {
      return false;
    }
    return true;
  }

  /// The checks after parsing: --resume needs --journal, workers run
  /// `worker_binary --worker`, and the options validate.
  bool check(const char* argv0, const std::string& worker_binary) {
    if (options.resume && options.journal_dir.empty()) {
      std::fprintf(stderr, "%s: --resume requires --journal DIR\n", argv0);
      return false;
    }
    if (options.workers > 0) {
      options.worker_command = {worker_binary, "--worker"};
    }
    const Status valid = options.validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, valid.to_string().c_str());
      return false;
    }
    return true;
  }

  /// With --connect, points the batch at that daemon.
  bool resolve_connect(const char* argv0) {
    if (connect.empty()) return true;
    net::Endpoint endpoint;
    if (!parse_endpoint(argv0, "--connect", connect, &endpoint)) return false;
    options.connect =
        svc::ClientOptions{endpoint.host, endpoint.port, priority};
    return true;
  }

  /// Returns run(), which runs the batch with `options`. A local batch is
  /// drained by SIGINT/SIGTERM meanwhile: admission stops, unstarted jobs
  /// come back "cancelled", the journal (if any) stays consistent, and the
  /// report says interrupted. A client is simply killed: its journal keeps
  /// what arrived.
  template <typename Run>
  auto run_draining(Run&& run) {
    if (!options.connect) {
      options.control = &detail::drain_control;
      std::signal(SIGINT, detail::request_drain);
      std::signal(SIGTERM, detail::request_drain);
    }
    auto result = run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    return result;
  }

  /// Exit status of a batch that did not run to the end, because its
  /// journal failed or a daemon did not answer every job: 4 when the
  /// journal keeps what arrived (--resume finishes the batch), else 2.
  [[nodiscard]] int unfinished_status(const svc::JobdReport& report) const {
    const bool resumable = report.journal_status.ok() &&
                           !report.connection.ok() &&
                           !options.journal_dir.empty();
    return resumable ? 4 : 2;
  }

  /// Exit status of a batch that ran to the end: 4, after a line that
  /// starts with `interrupted` and says how to finish, when a signal
  /// drained it; else 0 when every job ran OK and 3 when some did not.
  static int finished_status(const svc::JobdReport& report,
                             const char* interrupted) {
    if (report.interrupted) {
      std::fprintf(stderr,
                   "%s; rerun with --journal/--resume to finish the "
                   "remaining jobs\n",
                   interrupted);
      return 4;
    }
    return report.metrics.jobs_ok == report.metrics.jobs_total ? 0 : 3;
  }
};

}  // namespace mfd::tools
