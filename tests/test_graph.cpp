#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "device/context.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace emc::graph {
namespace {

TEST(EdgeListValidation, AcceptsValidGraph) {
  EdgeList g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}};
  EXPECT_TRUE(g.valid());
}

TEST(EdgeListValidation, RejectsSelfLoop) {
  EdgeList g;
  g.num_nodes = 2;
  g.edges = {{1, 1}};
  EXPECT_FALSE(g.valid());
}

TEST(EdgeListValidation, RejectsOutOfRange) {
  EdgeList g;
  g.num_nodes = 2;
  g.edges = {{0, 2}};
  EXPECT_FALSE(g.valid());
}

TEST(CsrMatches, AcceptsTheCsrBuiltFromTheList) {
  const device::Context ctx(2);
  const EdgeList g = simplified(gen::er_graph(200, 500, 7));
  EXPECT_TRUE(csr_matches(g, build_csr(ctx, g)));
  // Parallel edges carry distinct edge ids; the contract must hold for them
  // too (raw generated graphs are multigraphs).
  EdgeList multi;
  multi.num_nodes = 3;
  multi.edges = {{0, 1}, {1, 2}, {0, 1}};
  EXPECT_TRUE(csr_matches(multi, build_csr(ctx, multi)));
}

TEST(CsrMatches, RejectsMismatchedPairs) {
  const device::Context ctx(2);
  EdgeList g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}};
  const Csr csr = build_csr(ctx, g);

  EdgeList other = g;          // same counts, one endpoint differs
  other.edges[1] = {1, 3};
  EXPECT_FALSE(csr_matches(other, csr));

  EdgeList reordered = g;      // same edge set, edge ids shuffled
  std::swap(reordered.edges[0], reordered.edges[2]);
  EXPECT_FALSE(csr_matches(reordered, csr));

  EdgeList shorter = g;        // edge-count mismatch
  shorter.edges.pop_back();
  EXPECT_FALSE(csr_matches(shorter, csr));

  EdgeList renamed = g;        // node-count mismatch
  renamed.num_nodes = 5;
  EXPECT_FALSE(csr_matches(renamed, csr));
}

class CsrParam : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, CsrParam, ::testing::Values(1u, 4u));

TEST_P(CsrParam, AdjacencyMatchesEdgeList) {
  const EdgeList g = gen::er_graph(200, 1000, 5);
  const Csr csr = build_csr(ctx_, g);
  ASSERT_EQ(csr.num_nodes, g.num_nodes);
  ASSERT_EQ(csr.num_edges(), g.edges.size());

  // Multiset of (node, neighbor, edge id) triples must match exactly.
  std::multiset<std::tuple<NodeId, NodeId, EdgeId>> expected, got;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    expected.insert({g.edges[e].u, g.edges[e].v, static_cast<EdgeId>(e)});
    expected.insert({g.edges[e].v, g.edges[e].u, static_cast<EdgeId>(e)});
  }
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    for (EdgeId i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
      got.insert({v, csr.neighbors[i], csr.edge_ids[i]});
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_P(CsrParam, DegreesSumToTwiceEdges) {
  const EdgeList g = gen::er_graph(500, 3000, 6);
  const Csr csr = build_csr(ctx_, g);
  std::size_t total = 0;
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    total += static_cast<std::size_t>(csr.degree(v));
  }
  EXPECT_EQ(total, 2 * g.edges.size());
}

TEST_P(CsrParam, IsolatedNodesHaveZeroDegree) {
  EdgeList g;
  g.num_nodes = 10;
  g.edges = {{0, 1}};
  const Csr csr = build_csr(ctx_, g);
  for (NodeId v = 2; v < 10; ++v) EXPECT_EQ(csr.degree(v), 0);
}

TEST(Components, SingleComponentCycle) {
  const EdgeList g = gen::cycle_graph(50);
  const auto labels = connected_component_labels(g);
  EXPECT_EQ(count_components(labels), 1u);
}

TEST(Components, CountsIsolatedNodes) {
  EdgeList g;
  g.num_nodes = 5;
  g.edges = {{0, 1}};
  const auto labels = connected_component_labels(g);
  EXPECT_EQ(count_components(labels), 4u);  // {0,1}, {2}, {3}, {4}
}

TEST(Components, LabelsSeparateComponents) {
  EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {3, 4}};
  const auto labels = connected_component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[5], labels[0]);
  EXPECT_NE(labels[5], labels[3]);
}

TEST(LargestComponent, ExtractsAndRenumbers) {
  EdgeList g;
  g.num_nodes = 7;
  // Component A: 0-1-2 (3 nodes); component B: 3-4-5-6 (4 nodes, larger).
  g.edges = {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {3, 5}};
  const EdgeList lcc = largest_component(g);
  EXPECT_EQ(lcc.num_nodes, 4);
  EXPECT_EQ(lcc.edges.size(), 4u);
  EXPECT_TRUE(lcc.valid());
  EXPECT_EQ(count_components(connected_component_labels(lcc)), 1u);
}

TEST(LargestComponent, WholeGraphWhenConnected) {
  const EdgeList g = gen::cycle_graph(20);
  const EdgeList lcc = largest_component(g);
  EXPECT_EQ(lcc.num_nodes, 20);
  EXPECT_EQ(lcc.edges.size(), 20u);
}

TEST(Simplified, RemovesDuplicatesAndLoops) {
  EdgeList g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 3}};
  const EdgeList s = simplified(g);
  EXPECT_EQ(s.edges.size(), 2u);
  EXPECT_TRUE(s.valid());
}

TEST(Simplified, PreservesSimpleGraph) {
  const EdgeList g = gen::cycle_graph(10);
  EXPECT_EQ(simplified(g).edges.size(), 10u);
}

TEST(Canonicalize, DropsLoopsAndDuplicatesInBothOrientations) {
  const device::Context ctx(2);
  EdgeList g;
  g.num_nodes = 5;
  g.edges = {{1, 0}, {0, 1}, {2, 2}, {3, 4}, {4, 3}, {3, 4}, {0, 1}};
  const EdgeList canon = canonicalize(ctx, g);
  EXPECT_TRUE(canon.valid());
  EXPECT_EQ(canon.num_nodes, 5);
  ASSERT_EQ(canon.edges.size(), 2u);
  // Survivors are oriented (min, max) and sorted.
  EXPECT_EQ(canon.edges[0], (Edge{0, 1}));
  EXPECT_EQ(canon.edges[1], (Edge{3, 4}));
}

TEST(Canonicalize, GeneratorRoundTrip) {
  // Raw generator output is a multigraph that fails no invariant check but
  // carries duplicates; its canonical form satisfies valid() and is a fixed
  // point of canonicalize.
  const device::Context ctx(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const EdgeList raw = gen::kron_graph(8, 6, seed);
    const EdgeList canon = canonicalize(ctx, raw);
    EXPECT_TRUE(canon.valid());
    EXPECT_LE(canon.edges.size(), raw.edges.size());
    const EdgeList again = canonicalize(ctx, canon);
    EXPECT_EQ(again.edges, canon.edges);
    // Matches the sequential simplification exactly.
    EXPECT_EQ(simplified(raw).edges, canon.edges);
  }
}

TEST(Canonicalize, EmptyAndAllLoops) {
  const device::Context ctx(1);
  EdgeList g;
  g.num_nodes = 3;
  EXPECT_TRUE(canonicalize(ctx, g).edges.empty());
  g.edges = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_TRUE(canonicalize(ctx, g).edges.empty());
}

TEST(Canonicalize, DropsOutOfRangeEndpoints) {
  const device::Context ctx(1);
  EdgeList g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {0, 5}, {-1, 2}, {1, 2}};
  const EdgeList canon = canonicalize(ctx, g);
  EXPECT_TRUE(canon.valid());
  ASSERT_EQ(canon.edges.size(), 2u);
  EXPECT_EQ(canon.edges[0], (Edge{0, 1}));
  EXPECT_EQ(canon.edges[1], (Edge{1, 2}));
}

TEST(Diameter, ExactOnPath) {
  const device::Context ctx(1);
  const EdgeList g = gen::path_graph(100);
  const Csr csr = build_csr(ctx, g);
  EXPECT_EQ(estimate_diameter(csr), 99);
}

TEST(Diameter, CycleIsHalf) {
  const device::Context ctx(1);
  const EdgeList g = gen::cycle_graph(100);
  const Csr csr = build_csr(ctx, g);
  EXPECT_EQ(estimate_diameter(csr), 50);
}

TEST(Diameter, StarIsTwo) {
  const device::Context ctx(1);
  EdgeList g;
  g.num_nodes = 50;
  for (NodeId v = 1; v < 50; ++v) g.edges.push_back({0, v});
  const Csr csr = build_csr(ctx, g);
  EXPECT_EQ(estimate_diameter(csr), 2);
}

TEST(Diameter, IsolatedNodesNeverStartASweep) {
  // A 20-edge path on nodes 0..20 plus 980 isolated nodes: a start drawn
  // among all nodes is almost always isolated and would report 0.
  const device::Context ctx(1);
  EdgeList g;
  g.num_nodes = 1000;
  for (NodeId v = 0; v < 20; ++v) g.edges.push_back({v, v + 1});
  const Csr csr = build_csr(ctx, g);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(estimate_diameter(csr, 2, seed), 20) << "seed " << seed;
  }
  EXPECT_EQ(estimate_diameter(build_csr(ctx, EdgeList{5, {}})), 0);
}

}  // namespace
}  // namespace emc::graph
