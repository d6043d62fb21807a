#include "arch/synthetic.hpp"

#include <algorithm>
#include <string>

#include "graph/traversal.hpp"

namespace mfd::arch {

namespace {

bool on_boundary(const ConnectionGrid& grid, graph::NodeId n) {
  const int x = grid.x_of(n);
  const int y = grid.y_of(n);
  return x == 0 || y == 0 || x == grid.width() - 1 ||
         y == grid.height() - 1;
}

}  // namespace

Status SyntheticChipSpec::validate() const {
  Problems problems;
  problems.flag(ports < 2, "ports must be >= 2");
  problems.flag(grid_width < 3 || grid_height < 3, "grid must be at least 3x3");
  problems.flag(mixers < 0, "mixers must be >= 0");
  problems.flag(detectors < 0, "detectors must be >= 0");
  problems.flag(extra_channels < 0, "extra_channels must be >= 0");
  if (grid_width >= 3 && grid_height >= 3) {
    // Boundary ring and interior block of the grid; each port/device takes
    // one node from its region.
    const int boundary_nodes = 2 * (grid_width + grid_height) - 4;
    const int interior_nodes = (grid_width - 2) * (grid_height - 2);
    problems.flag(ports > boundary_nodes,
                  "not enough boundary nodes for the requested ports (" +
                      std::to_string(ports) + " > " +
                      std::to_string(boundary_nodes) + ")");
    problems.flag(mixers >= 0 && detectors >= 0 &&
                      mixers + detectors > interior_nodes,
                  "not enough interior nodes for the requested devices (" +
                      std::to_string(mixers + detectors) + " > " +
                      std::to_string(interior_nodes) + ")");
  }
  return problems.status("synthetic_chip_spec");
}

Biochip make_synthetic_chip(const SyntheticChipSpec& spec, Rng& rng) {
  const Status status = spec.validate();
  MFD_REQUIRE(status.ok(), status.to_string());
  ConnectionGrid grid(spec.grid_width, spec.grid_height);
  Biochip chip(grid, "synthetic");

  // Candidate nodes.
  std::vector<graph::NodeId> boundary;
  std::vector<graph::NodeId> interior;
  for (graph::NodeId n = 0; n < grid.graph().node_count(); ++n) {
    (on_boundary(grid, n) ? boundary : interior).push_back(n);
  }
  rng.shuffle(boundary);
  rng.shuffle(interior);

  std::vector<graph::NodeId> terminals;
  for (int p = 0; p < spec.ports; ++p) {
    chip.add_port(grid.x_of(boundary[static_cast<std::size_t>(p)]),
                  grid.y_of(boundary[static_cast<std::size_t>(p)]));
    terminals.push_back(boundary[static_cast<std::size_t>(p)]);
  }
  int next_interior = 0;
  for (int m = 0; m < spec.mixers; ++m) {
    const graph::NodeId n =
        interior[static_cast<std::size_t>(next_interior++)];
    chip.add_device(DeviceKind::kMixer, grid.x_of(n), grid.y_of(n));
    terminals.push_back(n);
  }
  for (int d = 0; d < spec.detectors; ++d) {
    const graph::NodeId n =
        interior[static_cast<std::size_t>(next_interior++)];
    chip.add_device(DeviceKind::kDetector, grid.x_of(n), grid.y_of(n));
    terminals.push_back(n);
  }

  // Connect terminals with randomized shortest paths over the full lattice;
  // occupy every edge along the way (skipping already-occupied ones).
  std::vector<double> weights(
      static_cast<std::size_t>(grid.graph().edge_count()));
  auto occupy_path = [&](graph::NodeId a, graph::NodeId b) {
    for (double& w : weights) w = rng.uniform(0.5, 2.0);
    const auto path =
        graph::shortest_path_weighted(grid.graph(), a, b, weights);
    MFD_ASSERT(path.has_value(), "lattice is connected");
    for (graph::EdgeId e : path->edges) {
      if (!chip.edge_occupied(e)) {
        const graph::Edge& edge = grid.graph().edge(e);
        chip.add_channel(grid.x_of(edge.u), grid.y_of(edge.u),
                         grid.x_of(edge.v), grid.y_of(edge.v));
      }
    }
  };
  for (std::size_t t = 1; t < terminals.size(); ++t) {
    occupy_path(terminals[rng.index(t)], terminals[t]);
  }

  // Extra loop channels: free edges adjacent to the occupied structure.
  for (int added = 0; added < spec.extra_channels;) {
    std::vector<graph::EdgeId> candidates;
    for (graph::EdgeId e = 0; e < grid.graph().edge_count(); ++e) {
      if (chip.edge_occupied(e)) continue;
      const graph::Edge& edge = grid.graph().edge(e);
      const bool touches =
          chip.node_is_port(edge.u) || chip.node_is_device(edge.u) ||
          chip.node_is_port(edge.v) || chip.node_is_device(edge.v) ||
          std::any_of(grid.graph().incident_edges(edge.u).begin(),
                      grid.graph().incident_edges(edge.u).end(),
                      [&](graph::EdgeId other) {
                        return chip.edge_occupied(other);
                      }) ||
          std::any_of(grid.graph().incident_edges(edge.v).begin(),
                      grid.graph().incident_edges(edge.v).end(),
                      [&](graph::EdgeId other) {
                        return chip.edge_occupied(other);
                      });
      if (touches) candidates.push_back(e);
    }
    if (candidates.empty()) break;
    const graph::EdgeId e = candidates[rng.index(candidates.size())];
    const graph::Edge& edge = grid.graph().edge(e);
    chip.add_channel(grid.x_of(edge.u), grid.y_of(edge.u), grid.x_of(edge.v),
                     grid.y_of(edge.v));
    ++added;
  }

  std::string why;
  MFD_ASSERT(chip.validate(&why), "synthetic chip invalid: " + why);
  return chip;
}

}  // namespace mfd::arch
