#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/euler_tour.hpp"
#include "core/tree.hpp"
#include "device/context.hpp"
#include "gen/trees.hpp"
#include "lca/inlabel.hpp"
#include "lca/naive.hpp"
#include "lca/rmq_lca.hpp"
#include "util/rng.hpp"

namespace emc::lca {
namespace {

/// Brute-force LCA by climbing with reference depths.
class BruteLca {
 public:
  explicit BruteLca(const core::ParentTree& tree)
      : parent_(tree.parent), depth_(core::depths_reference(tree)) {}

  NodeId query(NodeId x, NodeId y) const {
    while (depth_[x] > depth_[y]) x = parent_[x];
    while (depth_[y] > depth_[x]) y = parent_[y];
    while (x != y) {
      x = parent_[x];
      y = parent_[y];
    }
    return x;
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> depth_;
};

struct LcaCase {
  NodeId n;
  NodeId grasp;
  std::uint64_t seed;
};

class LcaAllAlgorithms : public ::testing::TestWithParam<LcaCase> {};

INSTANTIATE_TEST_SUITE_P(
    TreeShapes, LcaAllAlgorithms,
    ::testing::Values(LcaCase{1, gen::kInfiniteGrasp, 1},
                      LcaCase{2, gen::kInfiniteGrasp, 2},
                      LcaCase{3, 1, 3},
                      LcaCase{10, gen::kInfiniteGrasp, 4},
                      LcaCase{10, 1, 5},
                      LcaCase{100, gen::kInfiniteGrasp, 6},
                      LcaCase{100, 3, 7},
                      LcaCase{1000, gen::kInfiniteGrasp, 8},
                      LcaCase{1000, 1, 9},      // a path
                      LcaCase{1000, 10, 10},    // deep
                      LcaCase{1000, 100, 11},
                      LcaCase{5000, gen::kInfiniteGrasp, 12},
                      LcaCase{5000, 50, 13},
                      LcaCase{20000, gen::kInfiniteGrasp, 14},
                      LcaCase{20000, 200, 15}));

TEST_P(LcaAllAlgorithms, AgreeWithBruteForce) {
  const auto [n, grasp, seed] = GetParam();
  core::ParentTree tree = gen::random_tree(n, grasp, seed);
  gen::scramble_ids(tree, seed + 1000);
  ASSERT_TRUE(core::valid_parent_tree(tree));

  const device::Context ctx(2);
  const BruteLca brute(tree);
  const InlabelLca inlabel_par = InlabelLca::build_parallel(ctx, tree);
  const InlabelLca inlabel_seq = InlabelLca::build_sequential(tree);
  const NaiveLca naive = NaiveLca::build(ctx, tree);
  const RmqLca rmq = RmqLca::build(tree);

  const auto queries = gen::random_queries(n, 300, seed + 2000);
  for (const auto& [x, y] : queries) {
    const NodeId expected = brute.query(x, y);
    ASSERT_EQ(inlabel_par.query(x, y), expected)
        << "inlabel_par lca(" << x << "," << y << ")";
    ASSERT_EQ(inlabel_seq.query(x, y), expected)
        << "inlabel_seq lca(" << x << "," << y << ")";
    ASSERT_EQ(naive.query(x, y), expected)
        << "naive lca(" << x << "," << y << ")";
    ASSERT_EQ(rmq.query(x, y), expected)
        << "rmq lca(" << x << "," << y << ")";
  }
}

TEST_P(LcaAllAlgorithms, SelfAndAncestorQueries) {
  const auto [n, grasp, seed] = GetParam();
  core::ParentTree tree = gen::random_tree(n, grasp, seed);
  gen::scramble_ids(tree, seed + 1);
  const device::Context ctx(1);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  util::Rng rng(seed + 2);
  for (int i = 0; i < 100; ++i) {
    const NodeId v = static_cast<NodeId>(rng.below(n));
    // lca(v, v) == v.
    ASSERT_EQ(inlabel.query(v, v), v);
    // lca(v, ancestor) == ancestor.
    NodeId a = v;
    for (int hop = 0; hop < 3 && tree.parent[a] != kNoNode; ++hop) {
      a = tree.parent[a];
    }
    ASSERT_EQ(inlabel.query(v, a), a);
    ASSERT_EQ(inlabel.query(a, v), a);  // symmetric
  }
  // lca with the root is the root.
  const NodeId v = static_cast<NodeId>(rng.below(n));
  ASSERT_EQ(inlabel.query(v, tree.root), tree.root);
}

TEST(Lca, ScaleFreeTrees) {
  const device::Context ctx(2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::ParentTree tree = gen::barabasi_albert_tree(3000, seed);
    gen::scramble_ids(tree, seed + 50);
    const BruteLca brute(tree);
    const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
    const NaiveLca naive = NaiveLca::build(ctx, tree);
    const auto queries = gen::random_queries(3000, 200, seed + 60);
    for (const auto& [x, y] : queries) {
      const NodeId expected = brute.query(x, y);
      ASSERT_EQ(inlabel.query(x, y), expected);
      ASSERT_EQ(naive.query(x, y), expected);
    }
  }
}

TEST(Lca, BatchMatchesScalarQueries) {
  const device::Context ctx(3);
  core::ParentTree tree = gen::random_tree(5000, NodeId{30}, 21);
  gen::scramble_ids(tree, 22);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  const NaiveLca naive = NaiveLca::build(ctx, tree);
  const auto queries = gen::random_queries(5000, 10'000, 23);
  std::vector<NodeId> batch_inlabel, batch_naive;
  inlabel.query_batch(ctx, queries, batch_inlabel);
  naive.query_batch(ctx, queries, batch_naive);
  ASSERT_EQ(batch_inlabel.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(batch_inlabel[q], inlabel.query(queries[q].first, queries[q].second));
    ASSERT_EQ(batch_naive[q], batch_inlabel[q]);
  }
}

TEST(Lca, NaiveJumpBatchingVariantsAgree) {
  const device::Context ctx(2);
  core::ParentTree tree = gen::random_tree(4000, NodeId{7}, 31);
  gen::scramble_ids(tree, 32);
  const auto expected = core::depths_reference(tree);
  for (const int jumps : {2, 3, 5, 8}) {
    const NaiveLca naive = NaiveLca::build(ctx, tree, jumps);
    ASSERT_EQ(naive.levels(), expected) << "jumps_per_round=" << jumps;
  }
}

TEST(Lca, InlabelLevelsMatchReference) {
  const device::Context ctx(2);
  core::ParentTree tree = gen::random_tree(2000, NodeId{4}, 41);
  gen::scramble_ids(tree, 42);
  const InlabelLca par = InlabelLca::build_parallel(ctx, tree);
  const InlabelLca seq = InlabelLca::build_sequential(tree);
  const auto expected = core::depths_reference(tree);
  EXPECT_EQ(par.levels(), expected);
  EXPECT_EQ(seq.levels(), expected);
}

TEST(Lca, PathTreeEndToEnd) {
  // Worst case for naive: a path. lca(u, v) is the one closer to the root.
  const NodeId n = 2000;
  core::ParentTree tree;
  tree.root = 0;
  tree.parent.assign(n, kNoNode);
  for (NodeId v = 1; v < n; ++v) tree.parent[v] = v - 1;
  const device::Context ctx(1);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  const NaiveLca naive = NaiveLca::build(ctx, tree);
  EXPECT_EQ(inlabel.query(0, n - 1), 0);
  EXPECT_EQ(inlabel.query(n - 1, n - 2), n - 2);
  EXPECT_EQ(inlabel.query(500, 1500), 500);
  EXPECT_EQ(naive.query(500, 1500), 500);
}

TEST(Lca, StarTree) {
  const NodeId n = 1000;
  core::ParentTree tree;
  tree.root = 0;
  tree.parent.assign(n, 0);
  tree.parent[0] = kNoNode;
  const device::Context ctx(2);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  EXPECT_EQ(inlabel.query(1, 2), 0);
  EXPECT_EQ(inlabel.query(999, 1), 0);
  EXPECT_EQ(inlabel.query(5, 5), 5);
  EXPECT_EQ(inlabel.query(0, 7), 0);
}

TEST(Lca, CompleteBinaryTree) {
  // Heap-indexed complete binary tree: lca has a closed form.
  const NodeId n = 4095;
  core::ParentTree tree;
  tree.root = 0;
  tree.parent.assign(n, kNoNode);
  for (NodeId v = 1; v < n; ++v) tree.parent[v] = (v - 1) / 2;
  const device::Context ctx(2);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  const BruteLca brute(tree);
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const NodeId x = static_cast<NodeId>(rng.below(n));
    const NodeId y = static_cast<NodeId>(rng.below(n));
    ASSERT_EQ(inlabel.query(x, y), brute.query(x, y));
  }
}

TEST(Lca, CaterpillarTree) {
  // Spine 0-1-...-499 with a leaf hanging off each spine node: stresses the
  // inlabel path decomposition with many short paths.
  const NodeId spine = 500;
  core::ParentTree tree;
  tree.root = 0;
  tree.parent.assign(2 * spine, kNoNode);
  for (NodeId v = 1; v < spine; ++v) tree.parent[v] = v - 1;
  for (NodeId v = 0; v < spine; ++v) tree.parent[spine + v] = v;
  const device::Context ctx(2);
  const InlabelLca inlabel = InlabelLca::build_parallel(ctx, tree);
  const BruteLca brute(tree);
  util::Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    const NodeId x = static_cast<NodeId>(rng.below(2 * spine));
    const NodeId y = static_cast<NodeId>(rng.below(2 * spine));
    ASSERT_EQ(inlabel.query(x, y), brute.query(x, y));
  }
}

TEST(Lca, ParallelAndSequentialInlabelAgreeEverywhere) {
  const device::Context ctx(3);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::ParentTree tree = gen::random_tree(300, NodeId{6}, seed);
    gen::scramble_ids(tree, seed + 7);
    const InlabelLca par = InlabelLca::build_parallel(ctx, tree);
    const InlabelLca seq = InlabelLca::build_sequential(tree);
    // Exhaustive n^2 queries on this small tree.
    for (NodeId x = 0; x < 300; ++x) {
      for (NodeId y = x; y < 300; y += 7) {
        ASSERT_EQ(par.query(x, y), seq.query(x, y)) << x << "," << y;
      }
    }
  }
}

TEST(Lca, InlabelLaunchesDoNotDependOnShape) {
  // The ascendants are one difference scan, so the constructor's kernels
  // are fixed by n alone: a path, a star, a random tree and a virtual-root
  // forest of singletons plus one deep path (a sparse graph's spanning
  // forest) launch alike, whatever their inlabel segments' nesting.
  const NodeId n = 20000;
  std::vector<core::ParentTree> trees;
  core::ParentTree path;
  path.root = 0;
  path.parent.assign(n, kNoNode);
  for (NodeId v = 1; v < n; ++v) path.parent[v] = v - 1;
  trees.push_back(path);
  core::ParentTree star;
  star.root = 0;
  star.parent.assign(n, 0);
  star.parent[0] = kNoNode;
  trees.push_back(star);
  core::ParentTree random = gen::random_tree(n, NodeId{16}, 51);
  gen::scramble_ids(random, 52);
  trees.push_back(random);
  core::ParentTree forest = star;
  for (NodeId v = 3 * n / 4 + 1; v < n; ++v) forest.parent[v] = v - 1;
  trees.push_back(forest);

  for (const unsigned workers : {1u, 4u}) {
    const device::Context ctx(workers);
    std::vector<std::uint64_t> launches;
    for (const core::ParentTree& tree : trees) {
      const core::TreeStats stats = core::compute_tree_stats(
          ctx, core::build_euler_tour(ctx, core::tree_edges(tree), tree.root));
      for (int repeat = 0; repeat < 5; ++repeat) {
        const std::uint64_t before = ctx.launch_count();
        const InlabelLca inlabel(ctx, stats, tree.root);
        launches.push_back(ctx.launch_count() - before);
        if (repeat > 0) continue;
        const NaiveLca naive = NaiveLca::build(ctx, tree);
        util::Rng rng(workers + launches.size());
        for (int i = 0; i < 1000; ++i) {
          const NodeId x = static_cast<NodeId>(rng.below(n));
          const NodeId y = static_cast<NodeId>(rng.below(n));
          ASSERT_EQ(inlabel.query(x, y), naive.query(x, y)) << x << "," << y;
        }
      }
    }
    for (const std::uint64_t count : launches) {
      EXPECT_EQ(count, launches.front()) << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace emc::lca
