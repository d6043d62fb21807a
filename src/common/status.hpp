// Typed run outcomes for the public pipeline API.
//
// Long-running entry points (run_codesign above all) report how they ended
// through a Status value instead of a bool + free-form string: a typed
// Outcome, the pipeline stage that decided it, and a human-readable message.
// Algorithmic "no solution exists" results stay return values (see
// common/error.hpp for the exception policy); Status is the richer return
// value that carries them.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace mfd {

enum class Outcome {
  /// The run completed and produced a full result.
  kOk = 0,
  /// The caller's options failed validation; nothing ran.
  kInvalidOptions,
  /// The instance admits no solution (unschedulable assay, no configuration,
  /// no valid sharing scheme).
  kInfeasible,
  /// A RunControl deadline fired; the result is the best found so far.
  kDeadlineExceeded,
  /// A RunControl cancellation was requested; the result is partial.
  kCancelled,
  /// An unexpected error (exception) escaped the work; the result carries
  /// the error message but no artifacts. Used by the service layer, which
  /// must report a Status per job instead of unwinding the whole batch.
  kInternalError,
  /// The execution substrate (not the instance) gave out: the job was
  /// quarantined after repeated worker-process crashes or stalls. The
  /// message carries the last crash's signal or exit code; retrying on a
  /// healthy backend may well succeed.
  kUnavailable,
};

/// Canonical wire name of an outcome ("ok", "invalid_options", ...); the
/// exact strings JobResult JSON carries.
[[nodiscard]] const char* outcome_name(Outcome outcome);

/// Inverse of outcome_name(); nullopt for unrecognized names.
[[nodiscard]] std::optional<Outcome> outcome_from_name(const std::string& name);

[[nodiscard]] const char* to_string(Outcome outcome);

struct Status {
  Outcome outcome = Outcome::kOk;
  /// Pipeline stage that decided the outcome (empty on kOk), e.g.
  /// "baseline_schedule", "enumerate_configurations", "outer_pso".
  std::string stage;
  /// Human-readable explanation (empty on kOk).
  std::string message;

  [[nodiscard]] bool ok() const { return outcome == Outcome::kOk; }

  /// "ok", or "<outcome> at <stage>: <message>".
  [[nodiscard]] std::string to_string() const;

  static Status Ok() { return {}; }
  static Status Fail(Outcome outcome, std::string stage, std::string message);
};

/// The problem list every validate() builds: each flagged problem joins the
/// message with "; ", so one Status reports all violations at once.
struct Problems {
  std::string message;

  /// Adds `what` when `bad`.
  void flag(bool bad, const std::string& what) {
    if (!bad) return;
    if (!message.empty()) message += "; ";
    message += what;
  }
  /// Ok() when nothing was flagged, else kInvalidOptions at `stage`.
  [[nodiscard]] Status status(std::string stage) const {
    if (message.empty()) return Status::Ok();
    return Status::Fail(Outcome::kInvalidOptions, std::move(stage), message);
  }
};

}  // namespace mfd
