#include "workload/fpva.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/traversal.hpp"

namespace mfd::workload {

namespace {

bool has_whitespace(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return false;
}

/// Boundary ring nodes in clockwise walk order starting at (0, 0): top row
/// left-to-right, right column downward, bottom row right-to-left, left
/// column upward. Ports are spread evenly along this walk so arrays of any
/// size get the same corner-anchored placement.
std::vector<graph::NodeId> boundary_ring(const arch::ConnectionGrid& grid) {
  const int w = grid.width();
  const int h = grid.height();
  std::vector<graph::NodeId> ring;
  ring.reserve(static_cast<std::size_t>(2 * (w + h) - 4));
  for (int x = 0; x < w; ++x) ring.push_back(grid.node_at(x, 0));
  for (int y = 1; y < h; ++y) ring.push_back(grid.node_at(w - 1, y));
  for (int x = w - 2; x >= 0; --x) ring.push_back(grid.node_at(x, h - 1));
  for (int y = h - 2; y >= 1; --y) ring.push_back(grid.node_at(0, y));
  return ring;
}

}  // namespace

int fpva_lattice_edges(int rows, int cols) {
  return (cols - 1) * rows + cols * (rows - 1);
}

Status FpvaSpec::validate() const {
  Problems problems;
  problems.flag(has_whitespace(name), "name must not contain whitespace");
  problems.flag(rows < 2 || cols < 2, "grid must be at least 2x2");
  problems.flag(ports < 2, "ports must be >= 2");
  problems.flag(mixers < 0, "mixers must be >= 0");
  problems.flag(detectors < 0, "detectors must be >= 0");
  problems.flag(!(channel_density > 0.0) || channel_density > 1.0,
                "channel_density must be in (0, 1]");
  if (rows >= 2 && cols >= 2) {
    const int boundary_nodes = 2 * (rows + cols) - 4;
    const int interior_nodes = (rows - 2) * (cols - 2);
    problems.flag(ports >= 2 && ports > boundary_nodes,
                  "not enough boundary nodes for the requested ports (" +
                      std::to_string(ports) + " > " +
                      std::to_string(boundary_nodes) + ")");
    problems.flag(mixers >= 0 && detectors >= 0 &&
                      mixers + detectors > interior_nodes,
                  "not enough interior nodes for the requested devices (" +
                      std::to_string(mixers + detectors) + " > " +
                      std::to_string(interior_nodes) + ")");
  }
  return problems.status("fpva_spec");
}

arch::Biochip make_fpva_chip(const FpvaSpec& spec) {
  const Status status = spec.validate();
  MFD_REQUIRE(status.ok(), status.to_string());

  const arch::ConnectionGrid grid(spec.cols, spec.rows);
  const graph::Graph& lattice = grid.graph();
  std::string name = spec.name;
  if (name.empty()) {
    name = "fpva_" + std::to_string(spec.cols) + "x" + std::to_string(spec.rows);
  }
  arch::Biochip chip(grid, name);

  // Deterministic independent streams: thinning order and device placement
  // do not perturb each other when a knob changes.
  Rng rng(spec.seed);
  Rng thin_rng = rng.fork();
  Rng place_rng = rng.fork();

  // Decide the occupied-edge set: the full lattice, thinned toward the
  // density target by deleting edges in seeded random order — but never a
  // bridge of the current occupied subgraph, so all nodes (hence all ports
  // and devices) stay mutually reachable and Biochip::validate() holds by
  // construction.
  const int total_edges = lattice.edge_count();
  graph::EdgeMask occupied(total_edges, true);
  int occupied_count = total_edges;
  const int target_edges =
      std::max(lattice.node_count() - 1,
               static_cast<int>(std::llround(spec.channel_density *
                                             total_edges)));
  if (target_edges < total_edges) {
    std::vector<graph::EdgeId> order(static_cast<std::size_t>(total_edges));
    for (graph::EdgeId e = 0; e < total_edges; ++e) {
      order[static_cast<std::size_t>(e)] = e;
    }
    thin_rng.shuffle(order);
    graph::SubgraphAnalysis analysis;
    for (const graph::EdgeId e : order) {
      if (occupied_count <= target_edges) break;
      // Re-analyze per removal: deleting one edge can turn others into
      // bridges. O(E) per candidate is fine at array scale (~4M node visits
      // on a 32x32 grid).
      graph::analyze_subgraph(lattice, occupied, analysis);
      if (analysis.is_bridge[static_cast<std::size_t>(e)]) continue;
      occupied.set(e, false);
      --occupied_count;
    }
  }

  // Ports on the boundary ring, evenly spaced from the (0,0) corner.
  const std::vector<graph::NodeId> ring = boundary_ring(grid);
  for (int p = 0; p < spec.ports; ++p) {
    const std::size_t at = static_cast<std::size_t>(
        (static_cast<long long>(p) * static_cast<long long>(ring.size())) /
        spec.ports);
    chip.add_port(grid.x_of(ring[at]), grid.y_of(ring[at]));
  }

  // Devices on seeded-shuffled interior nodes: mixers first, then detectors.
  std::vector<graph::NodeId> interior;
  for (graph::NodeId n = 0; n < lattice.node_count(); ++n) {
    const int x = grid.x_of(n);
    const int y = grid.y_of(n);
    if (x > 0 && y > 0 && x < grid.width() - 1 && y < grid.height() - 1) {
      interior.push_back(n);
    }
  }
  place_rng.shuffle(interior);
  int next_interior = 0;
  for (int m = 0; m < spec.mixers; ++m) {
    const graph::NodeId n = interior[static_cast<std::size_t>(next_interior++)];
    chip.add_device(arch::DeviceKind::kMixer, grid.x_of(n), grid.y_of(n));
  }
  for (int d = 0; d < spec.detectors; ++d) {
    const graph::NodeId n = interior[static_cast<std::size_t>(next_interior++)];
    chip.add_device(arch::DeviceKind::kDetector, grid.x_of(n), grid.y_of(n));
  }

  // One valved channel per occupied lattice edge, in edge-id order (valve
  // ids are declaration-ordered, so the layout serializes deterministically).
  // add_channel() gives each valve its own dedicated control channel — the
  // FPVA regime, where every valve is individually addressable.
  for (graph::EdgeId e = 0; e < total_edges; ++e) {
    if (!occupied.enabled(e)) continue;
    const graph::Edge& edge = lattice.edge(e);
    chip.add_channel(grid.x_of(edge.u), grid.y_of(edge.u), grid.x_of(edge.v),
                     grid.y_of(edge.v));
  }

  std::string why;
  MFD_ASSERT(chip.validate(&why), "fpva chip invalid: " + why);
  return chip;
}

}  // namespace mfd::workload
