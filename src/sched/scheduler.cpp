#include "sched/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "graph/traversal.hpp"

namespace mfd::sched {

// Scratch element types for the scheduling engine. They live in a named
// namespace (not an anonymous one) because EvaluationContext::Impl stores
// them and Impl itself has external linkage; both are still private to this
// translation unit.
namespace detail {

enum class DeviceState { kIdle, kReserved, kRunning };

enum class OpState { kBlocked, kReady, kCollecting, kRunning, kDone };

enum class FluidWhere { kNone, kAtDevice, kInChannel };

// A fluid is the result of the producing operation; it keeps the producer's
// op id. Fluids feeding several successors are drawn off in aliquots: the
// location is released when the last consumer picks up.
struct FluidInfo {
  FluidWhere where = FluidWhere::kNone;
  arch::DeviceId device = -1;
  graph::EdgeId channel = graph::kInvalidEdge;
  int remaining_consumers = 0;
};

struct DeviceInfo {
  DeviceState state = DeviceState::kIdle;
  OpId reserved_for = -1;
  /// Producer op id of the result sitting at the device, -1 when empty.
  OpId held_fluid = -1;
  bool evicting = false;

  [[nodiscard]] bool idle_and_empty() const {
    return state == DeviceState::kIdle && held_fluid == -1 && !evicting;
  }
};

struct OpInfo {
  OpState state = OpState::kBlocked;
  arch::DeviceId device = -1;
  int inputs_pending = 0;
  double start = 0.0;
  double end = 0.0;
};

struct ActiveTransport {
  TransportPurpose purpose = TransportPurpose::kDelivery;
  OpId op = -1;           // receiving op (kStore: producing op)
  OpId fluid = -1;        // fluid moved, -1 for reagents
  graph::EdgeId storage_edge = graph::kInvalidEdge;  // kStore/kFetch
  std::vector<graph::EdgeId> opened_edges;           // incl. storage edge
  std::vector<graph::NodeId> touched_nodes;
  double start = 0.0;
  double end = 0.0;
  bool completed = false;
};

struct Event {
  double time = 0.0;
  int kind = 0;  // 0 = op completion, 1 = transport completion
  int index = -1;

  bool operator>(const Event& other) const { return time > other.time; }
};

}  // namespace detail

// Every buffer the engine mutates during one run. Reused across runs via the
// .assign()/.clear() calls in Engine::initialize(), so a warm context
// schedules without reallocating.
struct EvaluationContext::Impl {
  std::vector<detail::OpInfo> ops;
  std::vector<detail::FluidInfo> fluids;
  std::vector<detail::DeviceInfo> devices;
  std::vector<double> edge_busy_until;
  std::vector<OpId> edge_storage;
  std::vector<int> edge_betweenness;
  std::vector<double> priority;
  std::vector<OpId> dispatch_order;
  std::vector<detail::ActiveTransport> transports;
  /// Min-heap on time, maintained with std::push_heap/std::pop_heap so the
  /// storage survives between runs (std::priority_queue cannot be cleared
  /// without discarding its allocation).
  std::vector<detail::Event> events;
};

EvaluationContext::EvaluationContext() : impl_(std::make_unique<Impl>()) {}
EvaluationContext::~EvaluationContext() = default;
EvaluationContext::EvaluationContext(EvaluationContext&&) noexcept = default;
EvaluationContext& EvaluationContext::operator=(EvaluationContext&&) noexcept =
    default;

namespace {

using detail::ActiveTransport;
using detail::DeviceInfo;
using detail::DeviceState;
using detail::Event;
using detail::FluidInfo;
using detail::FluidWhere;
using detail::OpInfo;
using detail::OpState;

constexpr double kInf = std::numeric_limits<double>::infinity();

class Engine {
 public:
  Engine(const arch::Biochip& chip, const Assay& assay,
         const ScheduleOptions& options, EvaluationContext::Impl& scratch)
      : chip_(chip),
        assay_(assay),
        options_(options),
        rng_(options.seed),
        grid_(chip.grid().graph()),
        ops_(scratch.ops),
        fluids_(scratch.fluids),
        devices_(scratch.devices),
        edge_busy_until_(scratch.edge_busy_until),
        edge_storage_(scratch.edge_storage),
        edge_betweenness_(scratch.edge_betweenness),
        priority_(scratch.priority),
        dispatch_order_(scratch.dispatch_order),
        transports_(scratch.transports),
        events_(scratch.events) {
    for (arch::ValveId v = 0; v < chip.valve_count(); ++v) {
      MFD_REQUIRE(chip.valve(v).control != arch::kInvalidControl,
                  "schedule_assay(): valve without control channel");
    }
    std::string why;
    MFD_REQUIRE(assay.validate(&why), "schedule_assay(): invalid assay: " + why);
    MFD_REQUIRE(chip.validate(&why), "schedule_assay(): invalid chip: " + why);
  }

  Schedule run() {
    initialize();
    while (!all_done()) {
      if (stop_requested(options_.control)) return fail();
      dispatch_until_stable();
      if (all_done()) break;
      if (events_.empty()) return fail();  // deadlock: nothing in flight
      advance_to_next_event();
      if (now_ > options_.time_limit) return fail();
    }
    result_.feasible = true;
    result_.makespan = 0.0;
    for (const ScheduledOperation& op : result_.operations) {
      result_.makespan = std::max(result_.makespan, op.end);
    }
    return std::move(result_);
  }

 private:
  // ----- initialization ----------------------------------------------------

  void initialize() {
    const int n = assay_.operation_count();
    now_ = 0.0;
    ops_.assign(static_cast<std::size_t>(n), OpInfo{});
    fluids_.assign(static_cast<std::size_t>(n), FluidInfo{});
    devices_.assign(static_cast<std::size_t>(chip_.device_count()),
                    DeviceInfo{});
    edge_busy_until_.assign(
        static_cast<std::size_t>(grid_.edge_count()), 0.0);
    edge_storage_.assign(static_cast<std::size_t>(grid_.edge_count()), -1);
    transports_.clear();
    events_.clear();

    std::vector<double> durations;
    durations.reserve(static_cast<std::size_t>(n));
    for (const Operation& op : assay_.operations()) {
      durations.push_back(op.duration);
    }
    priority_ = graph::critical_path_lengths(assay_.dag(), durations);
    compute_edge_betweenness();
    dispatch_order_.resize(static_cast<std::size_t>(n));
    for (OpId o = 0; o < n; ++o) dispatch_order_[static_cast<std::size_t>(o)] = o;
    std::stable_sort(dispatch_order_.begin(), dispatch_order_.end(),
                     [&](OpId a, OpId b) {
                       return priority_[static_cast<std::size_t>(a)] >
                              priority_[static_cast<std::size_t>(b)];
                     });
    refresh_ready();
  }

  void refresh_ready() {
    for (OpId o = 0; o < assay_.operation_count(); ++o) {
      OpInfo& info = ops_[static_cast<std::size_t>(o)];
      if (info.state != OpState::kBlocked) continue;
      bool ready = true;
      for (OpId p : assay_.dag().predecessors(o)) {
        if (ops_[static_cast<std::size_t>(p)].state != OpState::kDone) {
          ready = false;
          break;
        }
      }
      if (ready) info.state = OpState::kReady;
    }
  }

  [[nodiscard]] bool all_done() const {
    return std::all_of(ops_.begin(), ops_.end(), [](const OpInfo& op) {
      return op.state == OpState::kDone;
    });
  }

  Schedule fail() {
    Schedule failed;
    failed.feasible = false;
    failed.makespan = kInf;
    failed.sharing_rejections = result_.sharing_rejections;
    return failed;
  }

  // ----- event heap --------------------------------------------------------

  void push_event(const Event& event) {
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), std::greater<>());
  }

  Event pop_event() {
    std::pop_heap(events_.begin(), events_.end(), std::greater<>());
    const Event event = events_.back();
    events_.pop_back();
    return event;
  }

  // ----- routing and sharing safety ---------------------------------------

  // Edges usable for a route right now; from/to device nodes are exempt from
  // the occupied-device blockade.
  graph::EdgeMask routable_mask(graph::NodeId from, graph::NodeId to) const {
    graph::EdgeMask mask(grid_.edge_count(), false);
    for (const arch::Valve& valve : chip_.valves()) {
      const graph::EdgeId e = valve.edge;
      if (edge_storage_[static_cast<std::size_t>(e)] != -1) continue;
      if (edge_busy_until_[static_cast<std::size_t>(e)] > now_ + 1e-9) {
        continue;
      }
      const graph::Edge& edge = grid_.edge(e);
      if (node_blocked(edge.u, from, to) || node_blocked(edge.v, from, to)) {
        continue;
      }
      mask.set(e, true);
    }
    return mask;
  }

  // Routes may pass an *idle, empty* device node (mVLSI devices expose a
  // bypass channel); a device with fluid inside (running, reserved, holding,
  // evicting) must not be flushed past.
  [[nodiscard]] bool node_blocked(graph::NodeId n, graph::NodeId from,
                                  graph::NodeId to) const {
    if (n == from || n == to) return false;
    const auto device = chip_.device_at(n);
    if (!device.has_value()) return false;
    return !devices_[static_cast<std::size_t>(*device)].idle_and_empty();
  }

  // Controls currently held open by in-flight transports.
  [[nodiscard]] std::set<arch::ControlId> active_open_controls() const {
    std::set<arch::ControlId> open;
    for (const ActiveTransport& t : transports_) {
      if (t.completed || t.end <= now_ + 1e-9) continue;
      for (graph::EdgeId e : t.opened_edges) {
        open.insert(chip_.valve(chip_.valve_on_edge(e)).control);
      }
    }
    return open;
  }

  // Section 4.1 execution validation: opening the controls of the new
  // transport (plus everything already open) must not open any valve that
  // leaks into the new route, an occupied element, or another transport's
  // route.
  bool sharing_safe(const std::vector<graph::EdgeId>& opened_edges,
                    const std::vector<graph::NodeId>& touched_nodes,
                    OpId for_op) {
    std::set<arch::ControlId> open_controls = active_open_controls();
    for (graph::EdgeId e : opened_edges) {
      open_controls.insert(chip_.valve(chip_.valve_on_edge(e)).control);
    }
    const auto on_new_path = [&](graph::EdgeId e) {
      return std::find(opened_edges.begin(), opened_edges.end(), e) !=
             opened_edges.end();
    };
    const auto touches = [](const graph::Edge& edge,
                            const std::vector<graph::NodeId>& nodes) {
      return std::find(nodes.begin(), nodes.end(), edge.u) != nodes.end() ||
             std::find(nodes.begin(), nodes.end(), edge.v) != nodes.end();
    };

    for (arch::ValveId v = 0; v < chip_.valve_count(); ++v) {
      if (open_controls.count(chip_.valve(v).control) == 0) continue;
      const graph::EdgeId e = chip_.valve(v).edge;
      if (on_new_path(e)) continue;  // the route itself
      const graph::Edge& edge = grid_.edge(e);

      // Membership in an active transport's own route. Deliveries converging
      // on the same operation are exempt from cross-checks: they feed the
      // same device by design.
      bool in_same_op_route = false;
      bool in_other_route = false;
      for (const ActiveTransport& t : transports_) {
        if (t.completed || t.end <= now_ + 1e-9) continue;
        const bool contains =
            std::find(t.opened_edges.begin(), t.opened_edges.end(), e) !=
            t.opened_edges.end();
        if (t.op == for_op) {
          in_same_op_route = in_same_op_route || contains;
          continue;
        }
        in_other_route = in_other_route || contains;
        // Our expansion must not branch off another transport's route.
        if (!contains && touches(edge, t.touched_nodes)) return unsafe();
      }
      if (in_same_op_route) continue;

      // Branch off the new route (fluid would leak into e).
      if (touches(edge, touched_nodes)) return unsafe();
      if (in_other_route) continue;  // disjoint active route: no other risk

      // Stored fluid released.
      if (edge_storage_[static_cast<std::size_t>(e)] != -1) return unsafe();

      // Leak at an occupied device.
      for (graph::NodeId endpoint : {edge.u, edge.v}) {
        const auto device = chip_.device_at(endpoint);
        if (device.has_value() &&
            !devices_[static_cast<std::size_t>(*device)].idle_and_empty()) {
          return unsafe();
        }
      }
    }
    return true;
  }

  bool unsafe() {
    ++result_.sharing_rejections;
    return false;
  }

  // Randomized-weight route search with sharing validation. `extra_edge`
  // (storage pickup/drop) is appended to the opened set.
  std::optional<std::vector<graph::EdgeId>> find_route(
      graph::NodeId from, graph::NodeId to, OpId for_op,
      graph::EdgeId extra_edge = graph::kInvalidEdge) {
    const graph::EdgeMask mask = routable_mask(from, to);

    // Crossing an active transport's junctions is rejected by the safety
    // validation, so steer routes around them up front.
    std::vector<char> congested(static_cast<std::size_t>(grid_.node_count()),
                                0);
    for (const ActiveTransport& t : transports_) {
      if (t.completed || t.end <= now_ + 1e-9 || t.op == for_op) continue;
      for (graph::NodeId n : t.touched_nodes) {
        congested[static_cast<std::size_t>(n)] = 1;
      }
    }

    for (int attempt = 0; attempt <= options_.route_retries; ++attempt) {
      std::vector<double> weights(static_cast<std::size_t>(grid_.edge_count()),
                                  1.0);
      for (graph::EdgeId e = 0; e < grid_.edge_count(); ++e) {
        const graph::Edge& edge = grid_.edge(e);
        if (congested[static_cast<std::size_t>(edge.u)] ||
            congested[static_cast<std::size_t>(edge.v)]) {
          weights[static_cast<std::size_t>(e)] += 32.0;
        }
      }
      if (attempt > 0) {
        for (double& w : weights) w *= rng_.uniform(0.2, 2.0);
      }
      const auto path =
          graph::shortest_path_weighted(grid_, from, to, weights, mask);
      if (!path.has_value()) return std::nullopt;  // disconnected: no retry

      // Waiting out transient congestion beats committing to a long detour:
      // decline routes far beyond the chip's static shortest path.
      const auto direct = graph::shortest_path(grid_, from, to,
                                               chip_.channel_mask());
      if (direct.has_value() &&
          path->length() >
              direct->length() + options_.detour_tolerance) {
        continue;
      }

      std::vector<graph::EdgeId> opened = path->edges;
      std::vector<graph::NodeId> touched = path->nodes;
      if (extra_edge != graph::kInvalidEdge) {
        opened.push_back(extra_edge);
        const graph::Edge& edge = grid_.edge(extra_edge);
        touched.push_back(edge.u);
        touched.push_back(edge.v);
      }
      if (sharing_safe(opened, touched, for_op)) return path->edges;
    }
    return std::nullopt;
  }

  double transport_duration(std::size_t opened_edge_count) const {
    return options_.transport_time_per_edge *
           static_cast<double>(std::max<std::size_t>(opened_edge_count, 1));
  }

  // ----- transports --------------------------------------------------------

  void commit_transport(ActiveTransport transport) {
    transport.start = now_;
    transport.end = now_ + transport_duration(transport.opened_edges.size());
    for (graph::EdgeId e : transport.opened_edges) {
      edge_busy_until_[static_cast<std::size_t>(e)] = transport.end;
    }
    transports_.push_back(std::move(transport));
    push_event(Event{transports_.back().end, 1,
                     static_cast<int>(transports_.size()) - 1});
  }

  ActiveTransport make_transport(TransportPurpose purpose, OpId op, OpId fluid,
                                 const std::vector<graph::EdgeId>& route,
                                 graph::EdgeId storage_edge) {
    ActiveTransport t;
    t.purpose = purpose;
    t.op = op;
    t.fluid = fluid;
    t.storage_edge = storage_edge;
    t.opened_edges = route;
    if (storage_edge != graph::kInvalidEdge) {
      t.opened_edges.push_back(storage_edge);
    }
    for (graph::EdgeId e : t.opened_edges) {
      const graph::Edge& edge = grid_.edge(e);
      t.touched_nodes.push_back(edge.u);
      t.touched_nodes.push_back(edge.v);
    }
    return t;
  }

  // ----- dispatch ----------------------------------------------------------

  void dispatch_until_stable() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (OpId o : dispatch_order_) {
        if (ops_[static_cast<std::size_t>(o)].state != OpState::kReady) {
          continue;
        }
        if (dispatch_op(o)) progress = true;
      }
      if (!progress && try_eviction_for_blocked()) progress = true;
    }
  }

  struct PlannedMove {
    TransportPurpose purpose;
    OpId fluid = -1;
    std::vector<graph::EdgeId> route;
    graph::EdgeId storage_edge = graph::kInvalidEdge;
  };

  bool dispatch_op(OpId o) {
    const Operation& op = assay_.operation(o);
    const arch::DeviceKind kind = Assay::required_device(op.kind);

    // Rank candidate devices: ones already holding an input first, then by
    // a cheap distance estimate over the input locations.
    std::vector<std::pair<double, arch::DeviceId>> candidates;
    for (arch::DeviceId d = 0; d < chip_.device_count(); ++d) {
      const arch::Device& device = chip_.device(d);
      if (device.kind != kind) continue;
      const DeviceInfo& info = devices_[static_cast<std::size_t>(d)];
      if (info.state != DeviceState::kIdle || info.evicting) continue;
      if (info.held_fluid != -1 && !holds_input_of(d, o)) continue;
      double score = estimate_cost(o, d);
      if (holds_input_of(d, o)) score -= 1000.0;
      candidates.emplace_back(score, d);
    }
    std::sort(candidates.begin(), candidates.end());

    for (const auto& [score, d] : candidates) {
      (void)score;
      if (try_bind(o, d)) return true;
    }
    return false;
  }

  [[nodiscard]] bool holds_input_of(arch::DeviceId d, OpId o) const {
    const OpId held = devices_[static_cast<std::size_t>(d)].held_fluid;
    if (held == -1) return false;
    const auto& preds = assay_.dag().predecessors(o);
    return std::find(preds.begin(), preds.end(), held) != preds.end();
  }

  double estimate_cost(OpId o, arch::DeviceId d) const {
    const graph::NodeId target = chip_.device(d).node;
    double total = 0.0;
    for (OpId p : assay_.dag().predecessors(o)) {
      const FluidInfo& fluid = fluids_[static_cast<std::size_t>(p)];
      graph::NodeId at = target;
      if (fluid.where == FluidWhere::kAtDevice) {
        at = chip_.device(fluid.device).node;
      } else if (fluid.where == FluidWhere::kInChannel) {
        at = grid_.edge(fluid.channel).u;
      }
      total += chip_.grid().manhattan_distance(at, target);
    }
    return total;
  }

  // True when some in-flight transport currently *shares open* a valve at
  // the device's mouth that is not part of any transport's own route — the
  // paper's "leakage at d1" scenario (Figure 6): valve sharing forced a
  // side valve open next to the device, so the device must not receive or
  // process fluid until those controls close again. A transport legitimately
  // bypassing the device on its own route does not gate it.
  bool device_exposed(arch::DeviceId d, OpId for_op) const {
    const graph::NodeId node = chip_.device(d).node;
    std::set<arch::ControlId> open;
    std::set<graph::EdgeId> route_edges;
    for (const ActiveTransport& t : transports_) {
      if (t.completed || t.end <= now_ + 1e-9 || t.op == for_op) continue;
      for (graph::EdgeId e : t.opened_edges) {
        open.insert(chip_.valve(chip_.valve_on_edge(e)).control);
        route_edges.insert(e);
      }
    }
    if (open.empty()) return false;
    for (const arch::Valve& valve : chip_.valves()) {
      if (open.count(valve.control) == 0) continue;
      if (route_edges.count(valve.edge) > 0) continue;  // a route itself
      const graph::Edge& edge = grid_.edge(valve.edge);
      if (edge.u == node || edge.v == node) return true;
    }
    return false;
  }

  // Tries to bind op o to device d: plans every input transport under the
  // current occupancy and sharing scheme, then commits atomically.
  bool try_bind(OpId o, arch::DeviceId d) {
    if (device_exposed(d, o)) return false;
    const graph::NodeId target = chip_.device(d).node;
    std::vector<PlannedMove> moves;
    int in_place = 0;

    for (OpId p : assay_.dag().predecessors(o)) {
      FluidInfo& fluid = fluids_[static_cast<std::size_t>(p)];
      MFD_ASSERT(fluid.where != FluidWhere::kNone,
                 "predecessor result vanished");
      if (fluid.where == FluidWhere::kAtDevice && fluid.device == d) {
        // Consuming in place is only possible for the last aliquot;
        // otherwise the remaining portions would be destroyed.
        if (fluid.remaining_consumers != 1) return false;
        ++in_place;
        continue;
      }
      PlannedMove move;
      move.fluid = p;
      if (fluid.where == FluidWhere::kAtDevice) {
        move.purpose = TransportPurpose::kDelivery;
        const auto route =
            find_route(chip_.device(fluid.device).node, target, o);
        if (!route.has_value()) return false;
        move.route = *route;
      } else {
        move.purpose = TransportPurpose::kFetch;
        move.storage_edge = fluid.channel;
        const graph::Edge& edge = grid_.edge(fluid.channel);
        auto route = find_route(edge.u, target, o, fluid.channel);
        if (!route.has_value()) {
          route = find_route(edge.v, target, o, fluid.channel);
        }
        if (!route.has_value()) return false;
        move.route = *route;
      }
      moves.push_back(std::move(move));
      // Occupy planned edges so the next input's route avoids them.
      for (graph::EdgeId e : moves.back().route) {
        edge_busy_until_[static_cast<std::size_t>(e)] = now_ + 1e-6;
      }
    }

    bool planned_ok = true;
    for (int reagent = 0; reagent < assay_.reagent_count(o) && planned_ok;
         ++reagent) {
      PlannedMove move;
      move.purpose = TransportPurpose::kReagent;
      planned_ok = false;
      for (arch::PortId port : ports_by_distance(target)) {
        const auto route = find_route(chip_.port(port).node, target, o);
        if (route.has_value()) {
          move.route = *route;
          planned_ok = true;
          break;
        }
      }
      if (planned_ok) {
        moves.push_back(std::move(move));
        for (graph::EdgeId e : moves.back().route) {
          edge_busy_until_[static_cast<std::size_t>(e)] = now_ + 1e-6;
        }
      }
    }

    // Release the tentative reservations; commit re-applies real windows.
    for (const PlannedMove& move : moves) {
      for (graph::EdgeId e : move.route) {
        edge_busy_until_[static_cast<std::size_t>(e)] = now_;
      }
    }
    if (!planned_ok) return false;

    // ---- commit ----
    OpInfo& info = ops_[static_cast<std::size_t>(o)];
    DeviceInfo& device = devices_[static_cast<std::size_t>(d)];
    info.state = OpState::kCollecting;
    info.device = d;
    info.inputs_pending = static_cast<int>(moves.size());
    device.state = DeviceState::kReserved;
    device.reserved_for = o;

    if (in_place > 0) {
      // The held fluid is consumed by this op.
      const OpId held = device.held_fluid;
      MFD_ASSERT(held != -1, "in-place input vanished before commit");
      consume_aliquot(held);
    }

    for (PlannedMove& move : moves) {
      if (move.fluid != -1) consume_aliquot(move.fluid);
      commit_transport(make_transport(move.purpose, o, move.fluid, move.route,
                                      move.storage_edge));
      result_.transports.push_back(
          TransportRecord{move.purpose, o, transports_.back().opened_edges,
                          transports_.back().start, transports_.back().end});
    }

    if (info.inputs_pending == 0) start_operation(o);
    return true;
  }

  // Draws one aliquot from a fluid; releases its location on the last draw.
  void consume_aliquot(OpId fluid_id) {
    FluidInfo& fluid = fluids_[static_cast<std::size_t>(fluid_id)];
    MFD_ASSERT(fluid.remaining_consumers > 0, "over-consumed fluid");
    if (--fluid.remaining_consumers > 0) return;
    if (fluid.where == FluidWhere::kAtDevice) {
      DeviceInfo& source = devices_[static_cast<std::size_t>(fluid.device)];
      if (source.held_fluid == fluid_id) source.held_fluid = -1;
    } else if (fluid.where == FluidWhere::kInChannel) {
      edge_storage_[static_cast<std::size_t>(fluid.channel)] = -1;
    }
    fluid.where = FluidWhere::kNone;
  }

  std::vector<arch::PortId> ports_by_distance(graph::NodeId target) const {
    std::vector<arch::PortId> ports(
        static_cast<std::size_t>(chip_.port_count()));
    for (arch::PortId p = 0; p < chip_.port_count(); ++p) {
      ports[static_cast<std::size_t>(p)] = p;
    }
    std::sort(ports.begin(), ports.end(), [&](arch::PortId a, arch::PortId b) {
      return chip_.grid().manhattan_distance(chip_.port(a).node, target) <
             chip_.grid().manhattan_distance(chip_.port(b).node, target);
    });
    return ports;
  }

  void start_operation(OpId o) {
    OpInfo& info = ops_[static_cast<std::size_t>(o)];
    DeviceInfo& device = devices_[static_cast<std::size_t>(info.device)];
    info.state = OpState::kRunning;
    info.start = now_;
    info.end = now_ + assay_.operation(o).duration;
    device.state = DeviceState::kRunning;
    result_.operations.push_back(
        ScheduledOperation{o, info.device, info.start, info.end});
    push_event(Event{info.end, 0, o});
  }

  // ----- eviction (distributed channel storage) ---------------------------

  // When every compatible device is blocked by a held result, park one of
  // the held results in a free channel segment.
  bool try_eviction_for_blocked() {
    for (OpId o : dispatch_order_) {
      if (ops_[static_cast<std::size_t>(o)].state != OpState::kReady) continue;
      const arch::DeviceKind kind =
          Assay::required_device(assay_.operation(o).kind);
      for (arch::DeviceId d = 0; d < chip_.device_count(); ++d) {
        const arch::Device& device = chip_.device(d);
        if (device.kind != kind) continue;
        DeviceInfo& info = devices_[static_cast<std::size_t>(d)];
        if (info.state != DeviceState::kIdle || info.evicting ||
            info.held_fluid == -1) {
          continue;
        }
        if (holds_input_of(d, o)) continue;  // wanted right where it is
        if (evict(d)) return true;
      }
    }
    return false;
  }

  // How many port/device shortest routes run over each channel segment.
  // Arterial segments score high and are avoided for storage.
  void compute_edge_betweenness() {
    edge_betweenness_.assign(static_cast<std::size_t>(grid_.edge_count()), 0);
    std::vector<graph::NodeId> terminals;
    for (const arch::Port& p : chip_.ports()) terminals.push_back(p.node);
    for (const arch::Device& d : chip_.devices()) terminals.push_back(d.node);
    const graph::EdgeMask mask = chip_.channel_mask();
    for (std::size_t a = 0; a < terminals.size(); ++a) {
      for (std::size_t b = a + 1; b < terminals.size(); ++b) {
        const auto path =
            graph::shortest_path(grid_, terminals[a], terminals[b], mask);
        if (!path.has_value()) continue;
        for (graph::EdgeId e : path->edges) {
          ++edge_betweenness_[static_cast<std::size_t>(e)];
        }
      }
    }
  }

  // True when the channel network minus storage (existing plus candidate)
  // still connects every port and device.
  bool storage_keeps_connectivity(graph::EdgeId candidate) const {
    graph::EdgeMask mask(grid_.edge_count(), false);
    for (const arch::Valve& valve : chip_.valves()) {
      const graph::EdgeId e = valve.edge;
      if (e == candidate) continue;
      if (edge_storage_[static_cast<std::size_t>(e)] != -1) continue;
      mask.set(e, true);
    }
    const std::vector<int> component =
        graph::connected_components(grid_, mask);
    const int anchor =
        component[static_cast<std::size_t>(chip_.port(0).node)];
    for (const arch::Port& p : chip_.ports()) {
      if (component[static_cast<std::size_t>(p.node)] != anchor) return false;
    }
    for (const arch::Device& dev : chip_.devices()) {
      if (component[static_cast<std::size_t>(dev.node)] != anchor) {
        return false;
      }
    }
    return true;
  }

  bool evict(arch::DeviceId d) {
    DeviceInfo& device = devices_[static_cast<std::size_t>(d)];
    const OpId fluid_id = device.held_fluid;
    MFD_ASSERT(fluid_id != -1, "evict(): nothing to evict");
    const graph::NodeId from = chip_.device(d).node;

    // Candidate storage segments sorted by distance from the device.
    std::vector<std::pair<int, graph::EdgeId>> candidates;
    for (const arch::Valve& valve : chip_.valves()) {
      const graph::EdgeId e = valve.edge;
      if (edge_storage_[static_cast<std::size_t>(e)] != -1) continue;
      if (edge_busy_until_[static_cast<std::size_t>(e)] > now_ + 1e-9) {
        continue;
      }
      const graph::Edge& edge = grid_.edge(e);
      // Do not park fluid against a port mouth (risk of venting when the
      // port is unsealed); device-adjacent segments are legitimate storage
      // per the distributed-storage model of [6].
      if (chip_.port_at(edge.u).has_value() ||
          chip_.port_at(edge.v).has_value()) {
        continue;
      }
      // Storing here must not disconnect the remaining channel network:
      // every port and device has to stay mutually reachable.
      if (!storage_keeps_connectivity(e)) continue;
      // Prefer low-traffic segments (few port/device shortest routes cross
      // them) over arterial ones, then short store distances.
      const int traffic = edge_betweenness_[static_cast<std::size_t>(e)];
      candidates.emplace_back(
          traffic * 100 + chip_.grid().manhattan_distance(from, edge.u), e);
    }
    std::sort(candidates.begin(), candidates.end());

    constexpr int kMaxStorageTries = 8;
    int tries = 0;
    for (const auto& [distance, storage_edge] : candidates) {
      (void)distance;
      if (++tries > kMaxStorageTries) break;
      const graph::Edge& edge = grid_.edge(storage_edge);
      auto route = find_route(from, edge.u, fluid_id, storage_edge);
      if (!route.has_value()) {
        route = find_route(from, edge.v, fluid_id, storage_edge);
      }
      if (!route.has_value()) continue;
      // Commit the store move.
      device.evicting = true;
      commit_transport(make_transport(TransportPurpose::kStore, fluid_id,
                                      fluid_id, *route, storage_edge));
      result_.transports.push_back(TransportRecord{
          TransportPurpose::kStore, fluid_id, transports_.back().opened_edges,
          transports_.back().start, transports_.back().end});
      return true;
    }
    return false;
  }

  // ----- events ------------------------------------------------------------

  void advance_to_next_event() {
    MFD_ASSERT(!events_.empty(), "advance_to_next_event(): no events");
    now_ = events_.front().time;
    while (!events_.empty() && events_.front().time <= now_ + 1e-9) {
      const Event event = pop_event();
      if (event.kind == 0) {
        complete_operation(event.index);
      } else {
        complete_transport(event.index);
      }
    }
    refresh_ready();
  }

  void complete_operation(OpId o) {
    OpInfo& info = ops_[static_cast<std::size_t>(o)];
    DeviceInfo& device = devices_[static_cast<std::size_t>(info.device)];
    info.state = OpState::kDone;
    device.state = DeviceState::kIdle;
    device.reserved_for = -1;

    const int consumers = assay_.dag().out_degree(o);
    if (consumers > 0) {
      FluidInfo& fluid = fluids_[static_cast<std::size_t>(o)];
      fluid.where = FluidWhere::kAtDevice;
      fluid.device = info.device;
      fluid.remaining_consumers = consumers;
      device.held_fluid = o;
    }
  }

  void complete_transport(int index) {
    ActiveTransport& t = transports_[static_cast<std::size_t>(index)];
    MFD_ASSERT(!t.completed, "transport completed twice");
    t.completed = true;
    switch (t.purpose) {
      case TransportPurpose::kStore: {
        FluidInfo& fluid = fluids_[static_cast<std::size_t>(t.fluid)];
        DeviceInfo& device = devices_[static_cast<std::size_t>(fluid.device)];
        device.held_fluid = -1;
        device.evicting = false;
        fluid.where = FluidWhere::kInChannel;
        fluid.channel = t.storage_edge;
        edge_storage_[static_cast<std::size_t>(t.storage_edge)] = t.fluid;
        break;
      }
      case TransportPurpose::kReagent:
      case TransportPurpose::kDelivery:
      case TransportPurpose::kFetch: {
        OpInfo& info = ops_[static_cast<std::size_t>(t.op)];
        MFD_ASSERT(info.state == OpState::kCollecting,
                   "delivery arrived for an op that is not collecting");
        if (--info.inputs_pending == 0) start_operation(t.op);
        break;
      }
    }
  }

  // ----- members -----------------------------------------------------------

  const arch::Biochip& chip_;
  const Assay& assay_;
  ScheduleOptions options_;
  Rng rng_;
  const graph::Graph& grid_;

  double now_ = 0.0;
  // Per-run scratch borrowed from the caller's EvaluationContext.
  std::vector<OpInfo>& ops_;
  std::vector<FluidInfo>& fluids_;
  std::vector<DeviceInfo>& devices_;
  std::vector<double>& edge_busy_until_;
  std::vector<OpId>& edge_storage_;
  std::vector<int>& edge_betweenness_;
  std::vector<double>& priority_;
  std::vector<OpId>& dispatch_order_;
  std::vector<ActiveTransport>& transports_;
  std::vector<Event>& events_;
  Schedule result_;
};

}  // namespace

Schedule schedule_assay(const arch::Biochip& chip, const Assay& assay,
                        const ScheduleOptions& options) {
  EvaluationContext ctx;
  return schedule_assay(chip, assay, options, ctx);
}

Schedule schedule_assay(const arch::Biochip& chip, const Assay& assay,
                        const ScheduleOptions& options,
                        EvaluationContext& ctx) {
  Engine engine(chip, assay, options, ctx.impl());
  return engine.run();
}

}  // namespace mfd::sched
