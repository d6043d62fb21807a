// Cooperative run control for long-running pipeline entry points.
//
// A RunControl carries a monotonic deadline, a cancellation token and an
// optional progress callback + tracer across every layer of the codesign
// pipeline (ILP branch-and-bound, simplex, path planning, vector generation,
// schedule simulation, PSO loops, batch evaluation). The layers poll it with
// check() at their serial synchronization points; once a deadline or a
// cancellation is observed the answer is sticky, so every layer above sees
// the same stop reason and unwinds gracefully, returning its best-so-far
// partial result.
//
// Determinism: check() reads the wall clock, so *whether* a run stops at a
// given point depends on timing — but the pipeline only consults it at
// serial points and discards work from the batch in flight when it fires,
// so two runs that stop at the same cut-off point produce identical
// results (and runs without a deadline are byte-identical to runs without a
// RunControl at all).
//
// Thread-safety: request_cancel() and check() may be called from any thread;
// set_* configuration and report_progress() belong to the (serial) driver.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <string>

#include "common/status.hpp"
#include "common/trace.hpp"

namespace mfd {

/// Longest deadline a run takes, in seconds (a year). Job specs and the
/// batch and daemon options reject longer ones, and set_timeout() clamps
/// to it, so the deadline arithmetic cannot overflow steady_clock.
inline constexpr double kMaxDeadlineS = 86400.0 * 365.0;

/// Whether `seconds` is a deadline a run takes (0 = none), and what a
/// validate() message says after the field's name when it is not.
[[nodiscard]] inline bool valid_deadline(double seconds) {
  return seconds >= 0.0 && seconds <= kMaxDeadlineS;
}
inline constexpr char kDeadlineRange[] = " must be in [0, 31536000] seconds";

enum class StopReason {
  kNone = 0,
  kDeadlineExceeded = 1,
  kCancelled = 2,
};

/// Periodic progress sample delivered to the RunControl's callback.
struct RunProgress {
  /// Pipeline stage reporting ("baseline_schedule", "outer_pso", ...).
  std::string stage;
  /// Completed / total units within the stage (total 0 = unknown).
  int completed = 0;
  int total = 0;
  /// Best objective value found so far (+inf until one exists).
  double best_value = std::numeric_limits<double>::infinity();
};

class RunControl {
 public:
  using ProgressCallback = std::function<void(const RunProgress&)>;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Absolute monotonic deadline. Set before starting the run.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Convenience: deadline = now + seconds (at most kMaxDeadlineS).
  void set_timeout(double seconds) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(
                         std::min(seconds, kMaxDeadlineS))));
  }
  [[nodiscard]] bool has_deadline() const { return has_deadline_; }

  /// Links this control under `parent` (borrowed, may be null; it must
  /// outlive this control): a stop of the parent stops this control with
  /// the same reason. Set before starting the run.
  void set_parent(const RunControl* parent) { parent_ = parent; }

  /// Requests cooperative cancellation; safe from any thread.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Polls for a stop condition. The first reason observed wins and is
  /// sticky: after any check() returns non-kNone, every later call returns
  /// the same reason without consulting the clock again.
  StopReason check() const {
    const int seen = observed_.load(std::memory_order_acquire);
    if (seen != 0) return static_cast<StopReason>(seen);
    if (cancel_.load(std::memory_order_acquire)) {
      return record(StopReason::kCancelled);
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return record(StopReason::kDeadlineExceeded);
    }
    if (parent_ != nullptr) {
      const StopReason inherited = parent_->check();
      if (inherited != StopReason::kNone) return record(inherited);
    }
    return StopReason::kNone;
  }

  /// The sticky stop reason recorded by an earlier check(), without reading
  /// the clock. Used to tag work that ran concurrently with a stop.
  [[nodiscard]] StopReason stop_observed() const {
    return static_cast<StopReason>(observed_.load(std::memory_order_acquire));
  }

  /// Optional tracer, threaded to every stage alongside the stop token.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Progress callback, rate-limited to one delivery per
  /// `min_interval_seconds` (0 = deliver every report). The callback runs on
  /// the driver thread, synchronously at a serial point — it may call
  /// request_cancel() to stop the run deterministically.
  void set_progress_callback(ProgressCallback callback,
                             double min_interval_seconds = 0.0) {
    progress_ = std::move(callback);
    progress_min_interval_ = min_interval_seconds;
  }
  void report_progress(const RunProgress& progress) const {
    if (!progress_) return;
    const auto now = std::chrono::steady_clock::now();
    if (progress_delivered_ && progress_min_interval_ > 0.0 &&
        std::chrono::duration<double>(now - last_progress_).count() <
            progress_min_interval_) {
      return;
    }
    progress_delivered_ = true;
    last_progress_ = now;
    progress_(progress);
  }

 private:
  StopReason record(StopReason reason) const {
    int expected = 0;
    observed_.compare_exchange_strong(expected, static_cast<int>(reason),
                                      std::memory_order_acq_rel);
    return static_cast<StopReason>(observed_.load(std::memory_order_acquire));
  }

  const RunControl* parent_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<bool> cancel_{false};
  mutable std::atomic<int> observed_{0};
  Tracer* tracer_ = nullptr;
  ProgressCallback progress_{};
  double progress_min_interval_ = 0.0;
  mutable bool progress_delivered_ = false;
  mutable std::chrono::steady_clock::time_point last_progress_{};
};

/// One-liner poll for layers holding an optional control pointer.
[[nodiscard]] inline bool stop_requested(const RunControl* control) {
  return control != nullptr && control->check() != StopReason::kNone;
}

/// Tracer of an optional control (nullptr when absent or not set).
[[nodiscard]] inline Tracer* tracer_of(const RunControl* control) {
  return control != nullptr ? control->tracer() : nullptr;
}

/// Maps a (non-kNone) stop reason to the public Outcome.
[[nodiscard]] Outcome outcome_of(StopReason reason);

}  // namespace mfd
