#include <gtest/gtest.h>

#include "arch/grid.hpp"

namespace mfd::arch {
namespace {

TEST(GridTest, NodeAndEdgeCounts) {
  const ConnectionGrid grid(5, 4);
  EXPECT_EQ(grid.graph().node_count(), 20);
  // Horizontal: 4*4, vertical: 5*3.
  EXPECT_EQ(grid.graph().edge_count(), 16 + 15);
}

TEST(GridTest, SingleNodeGridHasNoEdges) {
  const ConnectionGrid grid(1, 1);
  EXPECT_EQ(grid.graph().node_count(), 1);
  EXPECT_EQ(grid.graph().edge_count(), 0);
}

TEST(GridTest, CoordinateRoundTrip) {
  const ConnectionGrid grid(7, 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 7; ++x) {
      const graph::NodeId n = grid.node_at(x, y);
      EXPECT_EQ(grid.x_of(n), x);
      EXPECT_EQ(grid.y_of(n), y);
    }
  }
}

TEST(GridTest, RejectsOutOfRangeCoordinates) {
  const ConnectionGrid grid(3, 3);
  EXPECT_THROW((void)grid.node_at(3, 0), Error);
  EXPECT_THROW((void)grid.node_at(0, -1), Error);
}

TEST(GridTest, RejectsInvalidDimensions) {
  EXPECT_THROW(ConnectionGrid(0, 5), Error);
  EXPECT_THROW(ConnectionGrid(5, -1), Error);
}

TEST(GridTest, EdgeBetweenNeighbours) {
  const ConnectionGrid grid(4, 4);
  const graph::EdgeId h = grid.edge_between(1, 2, 2, 2);
  const graph::EdgeId v = grid.edge_between(3, 0, 3, 1);
  EXPECT_NE(h, graph::kInvalidEdge);
  EXPECT_NE(v, graph::kInvalidEdge);
  EXPECT_NE(h, v);
  // Symmetric lookup.
  EXPECT_EQ(grid.edge_between(2, 2, 1, 2), h);
}

TEST(GridTest, EdgeBetweenRejectsNonNeighbours) {
  const ConnectionGrid grid(4, 4);
  EXPECT_THROW((void)grid.edge_between(0, 0, 2, 0), Error);
  EXPECT_THROW((void)grid.edge_between(0, 0, 1, 1), Error);
  EXPECT_THROW((void)grid.edge_between(1, 1, 1, 1), Error);
}

TEST(GridTest, ManhattanDistance) {
  const ConnectionGrid grid(6, 5);
  EXPECT_EQ(grid.manhattan_distance(grid.node_at(0, 0), grid.node_at(5, 4)),
            9);
  EXPECT_EQ(grid.manhattan_distance(grid.node_at(2, 3), grid.node_at(2, 3)),
            0);
}

TEST(GridTest, EveryNodeDegreeBetweenTwoAndFour) {
  const ConnectionGrid grid(5, 5);
  for (graph::NodeId n = 0; n < grid.graph().node_count(); ++n) {
    const int d = grid.graph().degree(n);
    EXPECT_GE(d, 2);
    EXPECT_LE(d, 4);
  }
}

TEST(GridTest, EdgeIdsStableAcrossInstances) {
  const ConnectionGrid a(5, 4);
  const ConnectionGrid b(5, 4);
  EXPECT_EQ(a.edge_between(1, 1, 2, 1), b.edge_between(1, 1, 2, 1));
  EXPECT_EQ(a.edge_between(0, 2, 0, 3), b.edge_between(0, 2, 0, 3));
}

}  // namespace
}  // namespace mfd::arch
