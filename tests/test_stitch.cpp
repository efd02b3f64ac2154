// Direct unit tests for bridges/stitch.hpp — component_representatives and
// stitch_components, the virtual-edge stitch-and-slice machinery. Until
// this file they were covered only indirectly through the oracle/engine
// pipelines; the shard summary now reuses them as a standalone building
// block, so their contract is pinned here on its own.
#include "bridges/stitch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "bridges/dfs_bridges.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "support/reference.hpp"

namespace emc::bridges {
namespace {

TEST(Stitch, RepresentativesAreSelfLabeledNodesInNodeOrder) {
  const device::Context ctx(2);
  // Three components: {0,1,2} triangle, {3,4} edge, {5} isolated.
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}};
  const SpanningForest forest = cc_spanning_forest(ctx, g);
  ASSERT_EQ(forest.num_components, 3u);

  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  ASSERT_EQ(reps.size(), 3u);
  // Exactly the self-labeled nodes, compacted in ascending node order.
  for (std::size_t r = 0; r < reps.size(); ++r) {
    EXPECT_EQ(forest.component[reps[r]], reps[r]);
    if (r > 0) {
      EXPECT_LT(reps[r - 1], reps[r]);
    }
  }
  // Every node's label is one of the representatives.
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    EXPECT_NE(std::find(reps.begin(), reps.end(), forest.component[v]),
              reps.end());
  }
}

TEST(Stitch, ConnectedGraphIsReturnedUnchanged) {
  const device::Context ctx(2);
  graph::EdgeList g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const SpanningForest forest = cc_spanning_forest(ctx, g);
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  ASSERT_EQ(reps.size(), 1u);

  const graph::EdgeList stitched = stitch_components(g, reps);
  EXPECT_EQ(stitched.num_nodes, g.num_nodes);
  EXPECT_EQ(stitched.edges, g.edges);
}

TEST(Stitch, AddsOneVirtualEdgePerExtraComponent) {
  const device::Context ctx(2);
  graph::EdgeList g;
  g.num_nodes = 7;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}};  // components: 3 + {5}, {6}
  const SpanningForest forest = cc_spanning_forest(ctx, g);
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  ASSERT_EQ(reps.size(), 4u);

  const graph::EdgeList stitched = stitch_components(g, reps);
  EXPECT_EQ(stitched.num_nodes, g.num_nodes);
  ASSERT_EQ(stitched.edges.size(), g.edges.size() + reps.size() - 1);
  // The real edges come first, untouched (the slice-back contract).
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    EXPECT_EQ(stitched.edges[e], g.edges[e]);
  }
  // Then one virtual edge from the first representative to each other.
  for (std::size_t r = 1; r < reps.size(); ++r) {
    EXPECT_EQ(stitched.edges[g.edges.size() + r - 1],
              (graph::Edge{reps[0], reps[r]}));
  }
  ASSERT_TRUE(stitched.valid());
}

TEST(Stitch, VirtualEdgesNeverChangeARealEdgesBridgeness) {
  const device::Context ctx(2);
  // Two triangles (no bridges) + a path 6-7-8 (two bridges) + isolated 9.
  graph::EdgeList g;
  g.num_nodes = 10;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5},
             {3, 5}, {6, 7}, {7, 8}};
  const SpanningForest forest = cc_spanning_forest(ctx, g);
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  const graph::EdgeList stitched = stitch_components(g, reps);
  ASSERT_TRUE(stitched.valid());

  // Mask on the augmentation, truncated to the real edges, must equal the
  // per-component DFS verdicts on the original graph.
  const BridgeMask full = find_bridges_dfs(graph::build_csr(ctx, stitched));
  const BridgeMask direct = find_bridges_dfs(graph::build_csr(ctx, g));
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    EXPECT_EQ(full[e], direct[e]) << "edge " << e;
  }
  // And every virtual edge is itself a bridge (sole connection between its
  // components).
  for (std::size_t e = g.edges.size(); e < stitched.edges.size(); ++e) {
    EXPECT_TRUE(full[e]) << "virtual edge " << e;
  }
}

TEST(Stitch, EmptyAndSingleNodeGraphs) {
  const device::Context ctx(2);
  graph::EdgeList empty;
  empty.num_nodes = 0;
  const SpanningForest forest = cc_spanning_forest(ctx, empty);
  EXPECT_EQ(forest.num_components, 0u);
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  EXPECT_TRUE(reps.empty());
  const graph::EdgeList stitched = stitch_components(empty, reps);
  EXPECT_EQ(stitched.num_nodes, 0);
  EXPECT_TRUE(stitched.edges.empty());

  graph::EdgeList one;
  one.num_nodes = 1;
  const SpanningForest f1 = cc_spanning_forest(ctx, one);
  const std::vector<NodeId> r1 = component_representatives(ctx, f1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0], 0);
  EXPECT_TRUE(stitch_components(one, r1).edges.empty());
}

}  // namespace
}  // namespace emc::bridges
