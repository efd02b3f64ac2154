// core::PreorderWeights against a sequential fold: root-path sums (difference
// pairs over subtree intervals) and subtree sums (points read as interval
// differences) on random trees, paths and stars, with inputs on both sides of
// the cost model so both the sparse and the dense form run.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/euler_tour.hpp"
#include "core/tree.hpp"
#include "core/tree_ops.hpp"
#include "device/arena.hpp"
#include "device/context.hpp"
#include "gen/trees.hpp"
#include "support/fuzz_env.hpp"
#include "util/rng.hpp"

namespace emc::core {
namespace {

enum class Shape { kRandom, kPath, kStar };

ParentTree make_tree(Shape shape, NodeId n, std::uint64_t seed) {
  ParentTree tree;
  if (shape == Shape::kStar) {
    tree.root = 0;
    tree.parent.assign(n, 0);
    tree.parent[0] = kNoNode;
  } else {
    tree = gen::random_tree(n, shape == Shape::kPath ? 1 : 8, seed);
  }
  gen::scramble_ids(tree, seed + 1);
  return tree;
}

/// A tree's stats and `items` weighted nodes (repeats allowed).
struct Case {
  TreeStats stats;
  std::vector<NodeId> node;
  std::vector<NodeId> weight;

  Case(const device::Context& ctx, Shape shape, NodeId n, std::size_t items,
       std::uint64_t seed) {
    const ParentTree tree = make_tree(shape, n, seed);
    stats = compute_tree_stats(
        ctx, build_euler_tour(ctx, tree_edges(tree), tree.root));
    util::Rng rng(seed + 2);
    for (std::size_t i = 0; i < items; ++i) {
      node.push_back(static_cast<NodeId>(rng.below(n)));
      weight.push_back(static_cast<NodeId>(rng.below(1001)) - 500);
    }
  }

  NodeId num_nodes() const { return static_cast<NodeId>(stats.parent.size()); }

  /// The nodes in preorder: every parent before its children.
  std::vector<NodeId> preorder_nodes() const {
    std::vector<NodeId> order(num_nodes());
    for (NodeId v = 0; v < num_nodes(); ++v) order[stats.preorder[v] - 1] = v;
    return order;
  }

  std::vector<NodeId> node_weights() const {
    std::vector<NodeId> w(num_nodes(), 0);
    for (std::size_t i = 0; i < node.size(); ++i) w[node[i]] += weight[i];
    return w;
  }

  /// The weights over positions [0, n + 2), one read per node; `launches`
  /// gets the launches their construction took.
  template <typename Scatter>
  PreorderWeights build(const device::Context& ctx, device::Arena::Scope& scope,
                        std::uint64_t& launches, Scatter&& scatter) const {
    const std::uint64_t before = ctx.launch_count();
    PreorderWeights sums(ctx, scope, static_cast<std::size_t>(num_nodes()) + 2,
                         node.size(), static_cast<std::size_t>(num_nodes()),
                         scatter);
    launches = ctx.launch_count() - before;
    return sums;
  }
};

/// Each item's weight over its node's subtree interval: below(pre(v) + 1)
/// is the weight on v's root path, folded top-down as a reference.
void expect_root_path_sums(const device::Context& ctx, const Case& c,
                           std::uint64_t& launches) {
  const TreeStats& s = c.stats;
  device::Arena::Scope scope(ctx.arena());
  const PreorderWeights sums =
      c.build(ctx, scope, launches, [&](std::size_t i, auto&& add) {
        const NodeId v = c.node[i];
        add(s.preorder[v], c.weight[i]);
        add(s.preorder[v] + s.subtree_size[v], -c.weight[i]);
      });
  std::vector<NodeId> expected = c.node_weights();
  for (const NodeId v : c.preorder_nodes()) {
    if (s.parent[v] != kNoNode) expected[v] += expected[s.parent[v]];
  }
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    ASSERT_EQ(sums.below(s.preorder[v] + 1), expected[v]) << "node " << v;
  }
}

/// Each item's weight at its node's position: a subtree interval's
/// difference is the subtree's weight, folded bottom-up as a reference.
void expect_subtree_sums(const device::Context& ctx, const Case& c,
                         std::uint64_t& launches) {
  const TreeStats& s = c.stats;
  device::Arena::Scope scope(ctx.arena());
  const PreorderWeights sums =
      c.build(ctx, scope, launches, [&](std::size_t i, auto&& add) {
        add(s.preorder[c.node[i]], c.weight[i]);
      });
  std::vector<NodeId> expected = c.node_weights();
  const std::vector<NodeId> order = c.preorder_nodes();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (s.parent[*it] != kNoNode) expected[s.parent[*it]] += expected[*it];
  }
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    const NodeId pre = s.preorder[v];
    ASSERT_EQ(sums.below(pre + s.subtree_size[v]) - sums.below(pre),
              expected[v])
        << "node " << v;
  }
}

/// (workers, shape, nodes, weighted items). Items near n pick the dense
/// form; a few items, or a small tree, pick the sparse one.
class PreorderWeightsParam
    : public ::testing::TestWithParam<
          std::tuple<unsigned, Shape, std::pair<NodeId, std::size_t>>> {
 protected:
  const device::Context ctx_{std::get<0>(GetParam())};
  const Case case_{ctx_, std::get<1>(GetParam()),
                   std::get<2>(GetParam()).first,
                   std::get<2>(GetParam()).second, 11};
  /// The dense form's three launches (fill, scatter, scan); none sparse.
  std::uint64_t expected_launches() const {
    return case_.node.size() > 1000 ? 3 : 0;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PreorderWeightsParam,
    ::testing::Combine(
        ::testing::Values(1u, 4u),
        ::testing::Values(Shape::kRandom, Shape::kPath, Shape::kStar),
        ::testing::Values(std::pair<NodeId, std::size_t>{50, 50},
                          std::pair<NodeId, std::size_t>{5000, 8},
                          std::pair<NodeId, std::size_t>{5000, 5000})));

TEST_P(PreorderWeightsParam, RootPathSumsMatchFold) {
  std::uint64_t launches = 0;
  expect_root_path_sums(ctx_, case_, launches);
  EXPECT_EQ(launches, expected_launches());
}

TEST_P(PreorderWeightsParam, SubtreeSumsMatchFold) {
  std::uint64_t launches = 0;
  expect_subtree_sums(ctx_, case_, launches);
  EXPECT_EQ(launches, expected_launches());
}

TEST(PreorderWeights, RandomTreesMatchFold) {
  // Random shapes, sizes up to 3000 and up to 2n items: both forms run.
  const auto run = test_support::fuzz_run(23, 40);
  SCOPED_TRACE(run.trace);
  const device::Context contexts[] = {device::Context::sequential(),
                                      device::Context(4)};
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const device::Context& ctx = contexts[round % 2];
    const auto shape = static_cast<Shape>(rng.below(3));
    const auto n = static_cast<NodeId>(1 + rng.below(3000));
    const Case c(ctx, shape, n, rng.below(2 * n + 1), run.seed + round);
    std::uint64_t launches = 0;
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ASSERT_NO_FATAL_FAILURE(expect_root_path_sums(ctx, c, launches));
    ASSERT_NO_FATAL_FAILURE(expect_subtree_sums(ctx, c, launches));
  }
}

TEST(PreorderWeights, SingleNodeAndNoItems) {
  const device::Context ctx = device::Context::sequential();
  const Case c(ctx, Shape::kRandom, 1, 1, 5);
  device::Arena::Scope scope(ctx.arena());
  std::uint64_t launches = 0;
  const PreorderWeights one =
      c.build(ctx, scope, launches, [&](std::size_t i, auto&& add) {
        add(1, c.weight[i]);
        add(2, -c.weight[i]);
      });
  EXPECT_EQ(one.below(1), 0);
  EXPECT_EQ(one.below(2), c.weight[0]);
  const PreorderWeights none(ctx, scope, 3, 0, 1,
                             [](std::size_t, auto&&) {});
  EXPECT_EQ(none.below(0), 0);
  EXPECT_EQ(none.below(2), 0);
}

}  // namespace
}  // namespace emc::core
