// List scheduler with device binding, channel routing and distributed
// channel storage (the execution model of [6] the paper evaluates with).
//
// The scheduler executes a sequencing graph on a biochip:
//   * operations bind to compatible devices (mixers / detectors), prioritized
//     by critical-path length;
//   * fluids move between ports, devices and channels along routed paths;
//     transport time is proportional to path length;
//   * when a device must be freed while its result still has pending
//     consumers, the result is parked in a free channel segment (distributed
//     channel storage) and fetched later;
//   * control sharing is honoured: a transport may only start when opening
//     the controls of its path valves — which under valve sharing opens the
//     partner valves as well — leaks into neither the route itself nor any
//     occupied element (Section 4.1's execution validation). Unsafe
//     transports are retried on other routes or postponed, which is how DFT
//     valve sharing degrades execution time.
//
// The returned schedule is either feasible with a makespan, or infeasible
// (deadlock / time limit), which the codesign layer treats as quality
// infinity.
#pragma once

#include <limits>
#include <memory>

#include "arch/biochip.hpp"
#include "common/run_control.hpp"
#include "sched/assay.hpp"

namespace mfd::sched {

struct ScheduleOptions {
  /// Transport time per channel segment (seconds). The default is calibrated
  /// so transport and storage contention matter relative to the paper's
  /// operation durations (see EXPERIMENTS.md).
  double transport_time_per_edge = 4.0;
  /// Randomized alternative-route attempts when a route is unsafe under the
  /// sharing scheme.
  int route_retries = 6;
  /// A route may exceed the chip's static shortest path by at most this many
  /// segments; longer detours are declined in favour of waiting out the
  /// transient congestion.
  int detour_tolerance = 2;
  /// Schedules exceeding this makespan are reported infeasible.
  double time_limit = 1e6;
  /// Seed for route randomization.
  std::uint64_t seed = 7;
  /// Optional cooperative deadline/cancellation, polled once per event-loop
  /// round; a stop makes the schedule come back infeasible. Borrowed.
  const RunControl* control = nullptr;
};

struct ScheduledOperation {
  OpId op = -1;
  arch::DeviceId device = -1;
  double start = 0.0;
  double end = 0.0;
};

enum class TransportPurpose {
  kReagent,   // fresh fluid from a port to a device
  kDelivery,  // intermediate result between devices
  kFetch,     // stored fluid from a channel segment to a device
  kStore,     // result parked into a channel segment
};

struct TransportRecord {
  TransportPurpose purpose = TransportPurpose::kDelivery;
  /// Receiving operation (kStore: the producing operation).
  OpId op = -1;
  /// Channel segments opened for the move, in travel order.
  std::vector<graph::EdgeId> path;
  double start = 0.0;
  double end = 0.0;
};

struct Schedule {
  bool feasible = false;
  double makespan = std::numeric_limits<double>::infinity();
  std::vector<ScheduledOperation> operations;
  std::vector<TransportRecord> transports;
  /// Transport attempts rejected by the sharing-safety validation
  /// (diagnostic: 0 without valve sharing).
  int sharing_rejections = 0;
};

/// Caller-owned scratch for schedule_assay(): occupancy maps, event heap,
/// per-operation and per-device state. The scheduler itself keeps no mutable
/// state between runs, so concurrent schedule_assay() calls only need
/// distinct contexts (one per worker thread); reusing a context across runs
/// avoids reallocating every buffer per fitness evaluation. The layout is an
/// implementation detail of the scheduler.
class EvaluationContext {
 public:
  EvaluationContext();
  ~EvaluationContext();
  EvaluationContext(EvaluationContext&&) noexcept;
  EvaluationContext& operator=(EvaluationContext&&) noexcept;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Schedules the assay on the chip. Every valve must have a control channel.
Schedule schedule_assay(const arch::Biochip& chip, const Assay& assay,
                        const ScheduleOptions& options = {});

/// Re-entrant overload: all mutable scratch lives in `ctx`, which must not be
/// used by another thread for the duration of the call. Results are identical
/// to the context-free overload.
Schedule schedule_assay(const arch::Biochip& chip, const Assay& assay,
                        const ScheduleOptions& options, EvaluationContext& ctx);

}  // namespace mfd::sched
