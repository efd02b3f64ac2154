// Direct unit tests for the one way a spanning forest is rooted
// (bridges/cc_spanning.hpp): component_representatives and
// virtual_root_tree, which stitches every component below one virtual node
// so TV, the hybrid, the BCC index and the engine's forest LCA all tour a
// single tree. Their disconnected-input behaviour end to end is fuzzed in
// test_fuzz (FuzzBridges.AllAlgorithmsOnTinyMultigraphs).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "core/euler_tour.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"

namespace emc::bridges {
namespace {

TEST(VirtualRoot, RepresentativesAreSelfLabeledNodesInNodeOrder) {
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

TEST(VirtualRoot, EachComponentHangsBelowNodeNAsOnePreorderInterval) {
  const device::Context ctx(2);
  graph::EdgeList g;
  g.num_nodes = 7;
  g.edges = {{4, 3}, {1, 2}, {0, 2}, {2, 1}};  // {0,1,2}, {3,4}, {5}, {6}
  const SpanningForest forest = cc_spanning_forest(ctx, g);
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  ASSERT_EQ(reps.size(), 4u);

  const graph::EdgeList tree = virtual_root_tree(ctx, g, forest);
  ASSERT_EQ(tree.num_nodes, g.num_nodes + 1);
  ASSERT_EQ(tree.edges.size(), static_cast<std::size_t>(g.num_nodes));
  ASSERT_TRUE(tree.valid());
  // The forest's tree edges in order, then one virtual edge per
  // representative in node order.
  const std::size_t t = forest.tree_edges.size();
  for (std::size_t k = 0; k < t; ++k) {
    EXPECT_EQ(tree.edges[k], g.edges[forest.tree_edges[k]]);
  }
  for (std::size_t r = 0; r < reps.size(); ++r) {
    EXPECT_EQ(tree.edges[t + r], (graph::Edge{g.num_nodes, reps[r]}));
  }

  // Rooted at n: the representatives are the virtual root's children and
  // each one's subtree is exactly its component.
  const core::TreeStats stats = core::compute_tree_stats(
      ctx, core::build_euler_tour(ctx, tree, g.num_nodes));
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    const NodeId rep = forest.component[v];
    EXPECT_EQ(stats.parent[v] == g.num_nodes, v == rep) << "node " << v;
    const NodeId size = static_cast<NodeId>(std::count(
        forest.component.begin(), forest.component.end(), rep));
    EXPECT_EQ(stats.subtree_size[rep], size);
    EXPECT_GE(stats.preorder[v], stats.preorder[rep]);
    EXPECT_LT(stats.preorder[v], stats.preorder[rep] + size);
  }
}

TEST(VirtualRoot, EmptyAndSingleNodeGraphs) {
  const device::Context ctx(2);
  graph::EdgeList empty;
  empty.num_nodes = 0;
  const SpanningForest forest = cc_spanning_forest(ctx, empty);
  EXPECT_EQ(forest.num_components, 0u);
  EXPECT_TRUE(component_representatives(ctx, forest).empty());
  const graph::EdgeList lone_root = virtual_root_tree(ctx, empty, forest);
  EXPECT_EQ(lone_root.num_nodes, 1);
  EXPECT_TRUE(lone_root.edges.empty());

  graph::EdgeList one;
  one.num_nodes = 1;
  const SpanningForest f1 = cc_spanning_forest(ctx, one);
  const std::vector<NodeId> r1 = component_representatives(ctx, f1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0], 0);
  const graph::EdgeList tree = virtual_root_tree(ctx, one, f1);
  EXPECT_EQ(tree.num_nodes, 2);
  EXPECT_EQ(tree.edges, (std::vector<graph::Edge>{{1, 0}}));
}

}  // namespace
}  // namespace emc::bridges
