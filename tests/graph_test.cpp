#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"

namespace mfd::graph {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle_graph(int n) {
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

// 2x3 grid-ish graph used in several tests:
//  0-1-2
//  |   |
//  3-4-5
Graph ladder() {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 5);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  return g;
}

// ---- construction -----------------------------------------------------------

TEST(GraphTest, AddNodesAndEdges) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0);
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.edge(e).other(a), b);
  EXPECT_EQ(g.edge(e).other(b), a);
}

TEST(GraphTest, AddNodesBulkReturnsFirstId) {
  Graph g;
  g.add_node();
  const NodeId first = g.add_nodes(3);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(g.node_count(), 4);
}

TEST(GraphTest, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), Error);
}

TEST(GraphTest, RejectsParallelEdges) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), Error);
}

TEST(GraphTest, RejectsUnknownEndpoints) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5), Error);
}

TEST(GraphTest, FindEdgeBothOrientations) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(g.find_edge(0, 2), e);
  EXPECT_EQ(g.find_edge(2, 0), e);
  EXPECT_EQ(g.find_edge(0, 1), kInvalidEdge);
}

TEST(GraphTest, DegreeCountsIncidentEdges) {
  const Graph g = ladder();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(4), 2);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(GraphTest, EdgeOtherRejectsForeignNode) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_THROW((void)g.edge(e).other(2), Error);
}

TEST(EdgeMaskTest, EmptyMaskEnablesEverything) {
  EdgeMask mask;
  EXPECT_TRUE(mask.enabled(0));
  EXPECT_TRUE(mask.enabled(1000));
}

TEST(EdgeMaskTest, SetAndQuery) {
  EdgeMask mask(4, true);
  mask.set(2, false);
  EXPECT_TRUE(mask.enabled(0));
  EXPECT_FALSE(mask.enabled(2));
  EXPECT_THROW(mask.set(9, true), Error);
}

// ---- reachability and paths -------------------------------------------------

TEST(TraversalTest, ReachableOnPath) {
  const Graph g = path_graph(5);
  EXPECT_TRUE(reachable(g, 0, 4));
  EXPECT_TRUE(reachable(g, 4, 0));
  EXPECT_TRUE(reachable(g, 2, 2));
}

TEST(TraversalTest, MaskDisconnects) {
  const Graph g = path_graph(5);
  EdgeMask mask(g.edge_count(), true);
  mask.set(2, false);  // cut the middle
  EXPECT_TRUE(reachable(g, 0, 2, mask));
  EXPECT_FALSE(reachable(g, 0, 4, mask));
}

TEST(TraversalTest, ReachableSetIncludesSource) {
  const Graph g = ladder();
  const auto set = reachable_set(g, 0);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_NE(std::find(set.begin(), set.end(), 0), set.end());
}

TEST(TraversalTest, ShortestPathLengthsOnLadder) {
  const Graph g = ladder();
  const auto path = shortest_path(g, 0, 5);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 3);
  EXPECT_EQ(path->nodes.front(), 0);
  EXPECT_EQ(path->nodes.back(), 5);
  // Path is consistent: consecutive nodes joined by the listed edges.
  for (int i = 0; i < path->length(); ++i) {
    const Edge& e = g.edge(path->edges[static_cast<std::size_t>(i)]);
    EXPECT_EQ(e.other(path->nodes[static_cast<std::size_t>(i)]),
              path->nodes[static_cast<std::size_t>(i) + 1]);
  }
}

TEST(TraversalTest, ShortestPathTrivial) {
  const Graph g = path_graph(3);
  const auto path = shortest_path(g, 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 0);
}

TEST(TraversalTest, ShortestPathDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(shortest_path(g, 0, 3).has_value());
}

TEST(TraversalTest, WeightedPathPrefersCheapDetour) {
  // Triangle: direct edge 0-2 weight 10; detour via 1 weights 1+1.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> w(3, 1.0);
  w[static_cast<std::size_t>(direct)] = 10.0;
  const auto path = shortest_path_weighted(g, 0, 2, w);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 2);
}

TEST(TraversalTest, WeightedPathRejectsNegativeWeights) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(shortest_path_weighted(g, 0, 1, {-1.0}), Error);
}

TEST(TraversalTest, WeightedMatchesUnweightedWithUnitWeights) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(8);
    for (NodeId a = 0; a < 8; ++a) {
      for (NodeId b = a + 1; b < 8; ++b) {
        if (rng.flip(0.35)) g.add_edge(a, b);
      }
    }
    const std::vector<double> unit(static_cast<std::size_t>(g.edge_count()),
                                   1.0);
    for (NodeId t = 1; t < 8; ++t) {
      const auto bfs = shortest_path(g, 0, t);
      const auto dij = shortest_path_weighted(g, 0, t, unit);
      ASSERT_EQ(bfs.has_value(), dij.has_value());
      if (bfs.has_value()) {
        EXPECT_EQ(bfs->length(), dij->length());
      }
    }
  }
}

// ---- components -------------------------------------------------------------

TEST(TraversalTest, ComponentsOfDisconnectedGraph) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(TraversalTest, ComponentIdsAreDense) {
  Graph g(3);
  const auto comp = connected_components(g);
  std::vector<int> sorted = comp;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
}

// ---- bridges ----------------------------------------------------------------

TEST(BridgeTest, AllEdgesOfPathAreBridges) {
  const Graph g = path_graph(6);
  EXPECT_EQ(bridges(g).size(), 5u);
}

TEST(BridgeTest, CycleHasNoBridges) {
  const Graph g = cycle_graph(6);
  EXPECT_TRUE(bridges(g).empty());
}

TEST(BridgeTest, BarbellHasOneBridge) {
  // Two triangles joined by one edge.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  const EdgeId bridge = g.add_edge(2, 3);
  const auto found = bridges(g);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], bridge);
}

// Property: an edge is a bridge iff removing it disconnects its endpoints.
TEST(BridgeTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g(9);
    for (NodeId a = 0; a < 9; ++a) {
      for (NodeId b = a + 1; b < 9; ++b) {
        if (rng.flip(0.25)) g.add_edge(a, b);
      }
    }
    const auto found = bridges(g);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EdgeMask mask(g.edge_count(), true);
      mask.set(e, false);
      const bool disconnects =
          !reachable(g, g.edge(e).u, g.edge(e).v, mask);
      const bool reported =
          std::find(found.begin(), found.end(), e) != found.end();
      EXPECT_EQ(disconnects, reported) << "edge " << e << " trial " << trial;
    }
  }
}

TEST(TraversalTest, EdgeSeparatesMatchesDefinition) {
  const Graph g = ladder();
  // Removing edge 0 (0-1) still leaves 0-3-4-5-2-1.
  EXPECT_FALSE(edge_separates(g, 0, 0, 2));
  Graph p = path_graph(4);
  EXPECT_TRUE(edge_separates(p, 1, 0, 3));
}

// ---- subgraph analysis ------------------------------------------------------

TEST(SubgraphAnalysisTest, MatchesComponentsAndBridgesOnRandomSubgraphs) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(10);
    for (NodeId a = 0; a < 10; ++a) {
      for (NodeId b = a + 1; b < 10; ++b) {
        if (rng.flip(0.3)) g.add_edge(a, b);
      }
    }
    EdgeMask mask(g.edge_count(), true);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (rng.flip(0.25)) mask.set(e, false);
    }
    SubgraphAnalysis analysis;
    analyze_subgraph(g, mask, analysis);
    // Component labels are identical (not just equivalent) to the BFS pass.
    EXPECT_EQ(analysis.component, connected_components(g, mask));
    // An enabled edge is flagged as a bridge iff removing it disconnects
    // its endpoints; disabled edges are never bridges.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!mask.enabled(e)) {
        EXPECT_FALSE(analysis.is_bridge[static_cast<std::size_t>(e)]);
        continue;
      }
      EdgeMask removed = mask;
      removed.set(e, false);
      const bool disconnects =
          !reachable(g, g.edge(e).u, g.edge(e).v, removed);
      EXPECT_EQ(analysis.is_bridge[static_cast<std::size_t>(e)] != 0,
                disconnects)
          << "edge " << e << " trial " << trial;
    }
  }
}

TEST(SubgraphAnalysisTest, SeparatesMatchesEdgeSeparates) {
  Rng rng(321);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g(9);
    for (NodeId a = 0; a < 9; ++a) {
      for (NodeId b = a + 1; b < 9; ++b) {
        if (rng.flip(0.3)) g.add_edge(a, b);
      }
    }
    EdgeMask mask(g.edge_count(), true);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (rng.flip(0.2)) mask.set(e, false);
    }
    SubgraphAnalysis analysis;
    analyze_subgraph(g, mask, analysis);
    for (NodeId a = 0; a < 9; ++a) {
      for (NodeId b = 0; b < 9; ++b) {
        for (EdgeId e = 0; e < g.edge_count(); ++e) {
          if (!mask.enabled(e)) continue;
          if (analysis.connected(a, b)) {
            // Connected pair: separates() must agree with the brute-force
            // remove-and-recheck definition.
            EXPECT_EQ(analysis.separates(e, a, b),
                      edge_separates(g, e, a, b, mask))
                << "edge " << e << " pair " << a << "," << b;
          } else {
            // Already-disconnected pairs are never "separated by" an edge.
            EXPECT_FALSE(analysis.separates(e, a, b));
          }
        }
      }
    }
  }
}

// ---- empty-mask semantics ---------------------------------------------------

// "{} means every edge enabled" must hold across all traversal helpers —
// regression for the audit of empty-EdgeMask semantics.
TEST(EmptyMaskSemanticsTest, TraversalHelpersTreatEmptyAsAllEnabled) {
  const Graph g = ladder();
  const EdgeMask empty;
  const EdgeMask all(g.edge_count(), true);

  for (NodeId a = 0; a < g.node_count(); ++a) {
    for (NodeId b = 0; b < g.node_count(); ++b) {
      EXPECT_EQ(reachable(g, a, b, empty), reachable(g, a, b, all));
      const auto p1 = shortest_path(g, a, b, empty);
      const auto p2 = shortest_path(g, a, b, all);
      ASSERT_EQ(p1.has_value(), p2.has_value());
      if (p1.has_value()) {
        EXPECT_EQ(p1->length(), p2->length());
      }
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        EXPECT_EQ(edge_separates(g, e, a, b, empty),
                  edge_separates(g, e, a, b, all));
      }
    }
    EXPECT_EQ(reachable_set(g, a, empty), reachable_set(g, a, all));
  }
  EXPECT_EQ(connected_components(g, empty), connected_components(g, all));
  EXPECT_EQ(bridges(g, empty), bridges(g, all));

  SubgraphAnalysis with_empty;
  SubgraphAnalysis with_all;
  analyze_subgraph(g, empty, with_empty);
  analyze_subgraph(g, all, with_all);
  EXPECT_EQ(with_empty.component, with_all.component);
  EXPECT_EQ(with_empty.is_bridge, with_all.is_bridge);
}

}  // namespace
}  // namespace mfd::graph
