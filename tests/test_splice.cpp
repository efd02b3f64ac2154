// The forest edit: after one erase batch, or a replayed insert batch whose
// cross edges link trees, Session's fence derives the next record's
// spanning forest and forest LCA from the previous record's
// (bridges::splice_forest over core::splice_tree) instead of running
// the forest CC, the tour sort and the list ranking again.
//
// Four pillars:
//   tour splice — random cuts and random links on random trees give the
//     tour of the relinked tree: its stats equal a BFS of the new edge set;
//   publish pins — prev record and gap shapes take the path the fence's
//     rule names (last_publish), and the splice counts as a rebuild;
//   differential fuzz (EraseSpliceFuzz.*) — mixed insert and erase rounds
//     on small road, kron and many-component forest graphs, with erase
//     batches biased towards tree edges, a representative's own edges,
//     whole components and bridges. Every round diffs the published View
//     against a scratch Session and the sequential references, and checks
//     the spliced forest and tree against a fresh CC and a BFS; an erase
//     splice must also run no bridge backend, keep the previous epoch's
//     mask backend, and index exactly as a DFS mask over the same forest
//     and forest LCA would; the link
//     fuzz (LinkSpliceFuzz.*) does the same for insert rounds whose cross
//     edges link trees, every one of them replayed;
//   fault sweep — one erase splice or link publish faulted at every kernel
//     launch and scratch allocation in turn leaves held Views frozen, and
//     its retry lands where a scratch Session does.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "bridges/dfs_bridges.hpp"
#include "core/euler_tour.hpp"
#include "core/tour_splice.hpp"
#include "core/tree.hpp"
#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/oracle.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::engine {
namespace {

using graph::Edge;
using graph::EdgeList;

/// Parent, level and subtree size of the tree on `num_nodes` nodes with
/// undirected edges `edges`, by BFS from `root`.
struct BfsTree {
  std::vector<NodeId> parent, level, size;
};

BfsTree bfs_tree(std::size_t num_nodes, const std::vector<Edge>& edges,
                 NodeId root) {
  std::vector<std::vector<NodeId>> adj(num_nodes);
  for (const Edge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  BfsTree t{std::vector<NodeId>(num_nodes, kNoNode),
            std::vector<NodeId>(num_nodes, 0),
            std::vector<NodeId>(num_nodes, 1)};
  std::vector<NodeId> order{root};
  std::vector<std::uint8_t> seen(num_nodes, 0);
  seen[root] = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const NodeId w : adj[order[i]]) {
      if (seen[w] != 0) continue;
      seen[w] = 1;
      t.parent[w] = order[i];
      t.level[w] = t.level[order[i]] + 1;
      order.push_back(w);
    }
  }
  for (std::size_t i = order.size(); i-- > 1;) {
    t.size[t.parent[order[i]]] += t.size[order[i]];
  }
  return t;
}

/// Every child's preorder interval nests strictly inside its parent's.
void expect_intervals_nest(const core::TreeStats& t) {
  for (std::size_t v = 0; v < t.parent.size(); ++v) {
    const NodeId p = t.parent[v];
    if (p == kNoNode) continue;
    EXPECT_GT(t.preorder[v], t.preorder[p]) << "node " << v;
    EXPECT_LE(t.preorder[v] + t.subtree_size[v],
              t.preorder[p] + t.subtree_size[p])
        << "node " << v;
  }
}

// ---------------------------------------------------------- tour splice

TEST(TourSplice, RandomCutsAndLinksGiveTheRelinkedTreesTour) {
  const device::Context ctx(2);
  const auto fuzz = test_support::fuzz_run(/*seed=*/4242, /*rounds=*/60);
  SCOPED_TRACE(fuzz.trace);
  util::Rng rng(fuzz.seed);
  for (int round = 0; round < fuzz.rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto n = static_cast<NodeId>(1 + rng.below(40));
    const auto root = static_cast<NodeId>(rng.below(n));
    // A random recursive tree over a random labeling.
    std::vector<NodeId> label(n);
    for (NodeId v = 0; v < n; ++v) label[v] = v;
    for (NodeId v = n - 1; v > 0; --v) {
      std::swap(label[v], label[rng.below(v + 1)]);
    }
    std::swap(label[0], *std::find(label.begin(), label.end(), root));
    core::ParentTree tree{root, std::vector<NodeId>(n, kNoNode)};
    for (NodeId i = 1; i < n; ++i) {
      tree.parent[label[i]] = label[rng.below(i)];
    }
    const core::TreeStats stats = core::compute_tree_stats(
        ctx, core::build_euler_tour(ctx, core::tree_edges(tree), root));

    std::vector<NodeId> cuts;
    for (NodeId v = 0; v < n; ++v) {
      if (v != root && rng.below(4) == 0) cuts.push_back(v);
    }
    // Hang the pieces in a random order, each below a node of a piece
    // already hung, so following the links reaches piece 0.
    std::vector<core::TourLink> links;
    const core::TreeStats got = core::splice_tree(
        ctx, stats, root, cuts, [&](const core::TourPieces& pieces) {
          const std::size_t num_pieces = pieces.heads.size() + 1;
          EXPECT_EQ(pieces.heads.size(), cuts.size());
          std::vector<std::vector<NodeId>> members(num_pieces);
          for (NodeId v = 0; v < n; ++v) members[pieces.piece[v]].push_back(v);
          for (std::size_t p = 0; p < num_pieces; ++p) {
            EXPECT_EQ(pieces.smallest[p], members[p].front());
          }
          EXPECT_EQ(pieces.piece[root], 0);
          std::vector<std::size_t> order(num_pieces - 1);
          for (std::size_t p = 1; p < num_pieces; ++p) order[p - 1] = p;
          for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.below(i)]);
          }
          std::vector<NodeId> hung = members[0];
          links.resize(num_pieces - 1);
          for (const std::size_t p : order) {
            const NodeId node = members[p][rng.below(members[p].size())];
            const NodeId parent = hung[rng.below(hung.size())];
            links[p - 1] = {node, parent};
            hung.insert(hung.end(), members[p].begin(), members[p].end());
          }
          return links;
        });
    // The expected tree: the old edges but the cuts, plus the links.
    std::vector<Edge> edges;
    for (NodeId v = 0; v < n; ++v) {
      if (v != root && std::find(cuts.begin(), cuts.end(), v) == cuts.end()) {
        edges.push_back({tree.parent[v], v});
      }
    }
    for (const core::TourLink& link : links) {
      edges.push_back({link.parent, link.node});
    }
    const BfsTree want = bfs_tree(n, edges, root);
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.level, want.level);
    EXPECT_EQ(got.subtree_size, want.size);
    expect_intervals_nest(got);
    if (::testing::Test::HasFailure()) return;
  }
}

// -------------------------------------------------------------- helpers

using CanonicalEdgeSet = std::set<std::pair<NodeId, NodeId>>;

CanonicalEdgeSet bridge_set(const View& view) {
  const bridges::BridgeMask& mask = view.run(Bridges{});
  const graph::EdgeSpan g = view.edge_span();
  CanonicalEdgeSet out;
  for (std::size_t e = 0; e < mask.size(); ++e) {
    if (mask[e] != 0) {
      out.insert({std::min(g.edges[e].u, g.edges[e].v),
                  std::max(g.edges[e].u, g.edges[e].v)});
    }
  }
  return out;
}

View scratch_view(Engine& engine, const dynamic::DynamicGraph& dg) {
  Session scratch = engine.session(dg);
  scratch.refresh();
  return scratch.view();
}

/// The View's forest against a fresh CC of its snapshot, and its tree
/// against a BFS from each representative over its tree edges; its LCA
/// answers against a parent walk on that same forest.
void expect_forest_is_a_fresh_cc_tree(const View& view, util::Rng& rng) {
  const graph::EdgeSpan g = view.edge_span();
  const auto n = static_cast<std::size_t>(g.num_nodes);
  const bridges::SpanningForest& forest = view.forest();
  const bridges::SpanningForest fresh =
      bridges::cc_spanning_forest(device::Context::sequential(), g);
  ASSERT_EQ(forest.component, fresh.component);
  ASSERT_EQ(forest.num_components, fresh.num_components);
  ASSERT_EQ(forest.tree_edges.size(), n - forest.num_components);
  test_support::UnionFind uf(n);
  std::vector<Edge> tree_edges;
  for (const EdgeId e : forest.tree_edges) {
    ASSERT_GE(e, 0);
    ASSERT_LT(static_cast<std::size_t>(e), g.num_edges());
    ASSERT_TRUE(uf.unite(g.edges[e].u, g.edges[e].v)) << "cycle at edge " << e;
    tree_edges.push_back(g.edges[e]);
  }
  // Virtual node n above every representative, as the engine roots it.
  for (std::size_t v = 0; v < n; ++v) {
    if (forest.component[v] == static_cast<NodeId>(v)) {
      tree_edges.push_back({static_cast<NodeId>(n), static_cast<NodeId>(v)});
    }
  }
  const BfsTree want = bfs_tree(n + 1, tree_edges, static_cast<NodeId>(n));
  const core::TreeStats& tree = view.artifact<lca::InlabelLca>().tree();
  ASSERT_EQ(tree.parent, want.parent);
  ASSERT_EQ(tree.level, want.level);
  ASSERT_EQ(tree.subtree_size, want.size);
  expect_intervals_nest(tree);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int q = 0; q < 24; ++q) {
    pairs.push_back({static_cast<NodeId>(rng.below(n)),
                     static_cast<NodeId>(rng.below(n))});
  }
  const auto lca = view.run(LcaBatch{pairs});
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    auto [u, v] = pairs[q];
    NodeId walk = kNoNode;
    if (forest.component[u] == forest.component[v]) {
      while (want.level[u] > want.level[v]) u = want.parent[u];
      while (want.level[v] > want.level[u]) v = want.parent[v];
      while (u != v) {
        u = want.parent[u];
        v = want.parent[v];
      }
      walk = u;
    }
    EXPECT_EQ(lca[q], walk) << "lca " << pairs[q].first << ","
                            << pairs[q].second;
  }
}

/// The published View against a scratch Session's at the same epoch and
/// the sequential references.
void expect_views_agree(const View& got, const View& want, util::Rng& rng) {
  ASSERT_EQ(got.epoch(), want.epoch());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.num_components(), want.num_components());
  EXPECT_EQ(bridge_set(got), bridge_set(want));
  const TwoEccView blocks_got = got.run(TwoEcc{});
  const TwoEccView blocks_want = want.run(TwoEcc{});
  ASSERT_EQ(blocks_got.num_blocks, blocks_want.num_blocks);
  ASSERT_EQ(test_support::partition_mismatch(*blocks_got.labels,
                                             *blocks_want.labels),
            "")
      << "2ecc";
  const auto n = got.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  ComponentSize sizes;
  for (int q = 0; q < 24; ++q) {
    pairs.push_back({static_cast<NodeId>(rng.below(n)),
                     static_cast<NodeId>(rng.below(n))});
    sizes.nodes.push_back(pairs.back().first);
  }
  EXPECT_EQ(got.run(Same2Ecc{pairs}), want.run(Same2Ecc{pairs}));
  EXPECT_EQ(got.run(BridgesOnPath{pairs}), want.run(BridgesOnPath{pairs}));
  EXPECT_EQ(got.run(sizes), want.run(sizes));
  const test_support::ReferenceBcc bcc(got.edge_span());
  const auto same_bcc = got.run(SameBcc{pairs});
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    const auto [u, v] = pairs[q];
    EXPECT_EQ(same_bcc[q] != 0, bcc.same_bcc(u, v))
        << "same_bcc " << u << "," << v;
  }
  const test_support::ReferenceOracle ref(device::Context::sequential(),
                                          got.edge_span());
  EXPECT_EQ(bridge_set(got).size(), ref.num_bridges);
}

/// An erase splice's 2-ecc index against the one a rebuild builds from a
/// sequential DFS mask over the same forest and forest LCA: the labels, the
/// sizes and the bridge count are identical, and bridges_on_path agrees.
void expect_index_is_the_mask_built_one(const dynamic::ConnectivityOracle& got,
                                        const View& view, util::Rng& rng) {
  const device::Context ctx = device::Context::sequential();
  const graph::EdgeSpan g = view.edge_span();
  const bridges::BridgeMask mask =
      bridges::find_bridges_dfs(graph::build_csr(ctx, g));
  // Non-owning: the View keeps its forest LCA alive.
  const std::shared_ptr<const lca::InlabelLca> lca(
      std::shared_ptr<void>{}, &view.artifact<lca::InlabelLca>());
  const dynamic::ConnectivityOracle want(ctx, g, view.forest(), lca, mask);
  ASSERT_EQ(got.block_labels(), want.block_labels());
  ASSERT_EQ(got.block_sizes(), want.block_sizes());
  ASSERT_EQ(got.num_blocks(), want.num_blocks());
  ASSERT_EQ(got.num_bridges(), want.num_bridges());
  ASSERT_EQ(got.num_bridges(), bridges::count_bridges(mask));
  const auto n = static_cast<std::size_t>(g.num_nodes);
  for (int q = 0; q < 24 && n > 0; ++q) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    EXPECT_EQ(got.bridges_on_path(u, v), want.bridges_on_path(u, v))
        << "bridges_on_path " << u << "," << v;
  }
}

// --------------------------------------------------------- publish pins

TEST(EraseSplicePublish, ErasingABridgeSplitsTheComponentWithoutARebuild) {
  Engine engine({.device_workers = 2});
  // Two triangles joined by the bridge {2,3}, and a pendant path 5-6-7.
  dynamic::DynamicGraph dg(
      engine.device(),
      EdgeList{8, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
                   {5, 6}, {6, 7}}});
  Session session = engine.session(dg);
  session.refresh();
  EXPECT_EQ(session.last_publish().path, PublishPath::kRebuild);
  EXPECT_EQ(session.last_publish().reason, RebuildReason::kNoRecord);
  const View before = session.view();

  // {2,3} is a bridge, so {3,4,5,6,7} becomes a component of its own
  // labeled 3; {1,2} is a tree or a non-tree edge of its triangle.
  ASSERT_EQ(dg.erase_edges(engine.device(), {{2, 3}, {1, 2}}), 2u);
  session.refresh();
  EXPECT_EQ(session.last_publish().path, PublishPath::kEraseSplice);
  EXPECT_EQ(session.last_publish().epoch, dg.epoch());
  EXPECT_EQ(session.publish_rebuilds(), 2u);  // a splice counts as one
  EXPECT_EQ(session.publish_replays(), 0u);
  const View after = session.view();
  EXPECT_EQ(after.num_components(), 2u);
  EXPECT_EQ(after.forest().component,
            (std::vector<NodeId>{0, 0, 0, 3, 3, 3, 3, 3}));
  util::Rng rng(7);
  expect_forest_is_a_fresh_cc_tree(after, rng);
  expect_views_agree(after, scratch_view(engine, dg), rng);
  EXPECT_EQ(before.num_components(), 1u);  // the held View is frozen
  EXPECT_EQ(before.num_edges(), 9u);
}

TEST(EraseSplicePublish, GapsAndMissingInputsNameTheirRebuildReason) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::road_graph(8, 8, 0.9, 0.05, 3));
  Session session = engine.session(dg);
  session.refresh();
  const auto edge = [&](std::size_t i) {
    return dg.snapshot().span().edges[i];
  };
  const auto expect_path = [&](PublishPath path, RebuildReason reason) {
    session.refresh();
    EXPECT_EQ(session.last_publish().path, path);
    EXPECT_EQ(session.last_publish().reason, reason);
    util::Rng rng(dg.epoch());
    expect_views_agree(session.view(), scratch_view(engine, dg), rng);
  };

  // An insert and an erase between two publishes: no splice expresses it.
  dg.insert_edges(engine.device(), {{0, 63}});
  dg.erase_edges(engine.device(), {edge(0)});
  expect_path(PublishPath::kRebuild, RebuildReason::kGap);
  // Two erase batches.
  dg.erase_edges(engine.device(), {edge(0)});
  dg.erase_edges(engine.device(), {edge(0)});
  expect_path(PublishPath::kRebuild, RebuildReason::kGap);
  // One erase batch after drop_results: the record has no forest LCA.
  session.drop_results();
  dg.erase_edges(engine.device(), {edge(3)});
  expect_path(PublishPath::kRebuild, RebuildReason::kNoRecord);
  // One erase batch: spliced. An insert-only batch: replayed.
  dg.erase_edges(engine.device(), {edge(5), edge(9)});
  expect_path(PublishPath::kEraseSplice, RebuildReason::kNone);
  dg.insert_edges(engine.device(), {{0, 9}});
  expect_path(PublishPath::kReplay, RebuildReason::kNone);
  // An erase past incremental_applies' size.
  std::vector<Edge> most(dg.snapshot().span().edges.begin(),
                         dg.snapshot().span().edges.end());
  most.resize(most.size() - 4);
  dg.erase_edges(engine.device(), most);
  expect_path(PublishPath::kRebuild, RebuildReason::kOversized);
}

TEST(EraseSplicePublish, CycleClosingCrossSuffixNamesItsReason) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(),
                           EdgeList{6, {{0, 1}, {2, 3}, {4, 5}}});
  Session session = engine.session(dg);
  session.refresh();
  // {1,2} and {3,4} merge three components; {5,0} then closes a cycle.
  dg.insert_edges(engine.device(), {{1, 2}, {3, 4}, {0, 5}});
  session.refresh();
  EXPECT_EQ(session.last_publish().path, PublishPath::kRebuild);
  EXPECT_EQ(session.last_publish().reason, RebuildReason::kCycle);
}

// ------------------------------------------------------------------ fuzz

/// One erase batch, drawn by `shape` from the View's snapshot: tree edges,
/// a representative's own edges, every edge of one component, bridges, or
/// uniform edges.
std::vector<Edge> erase_batch(const View& view, util::Rng& rng, int shape) {
  const graph::EdgeSpan g = view.edge_span();
  const bridges::SpanningForest& forest = view.forest();
  std::vector<Edge> batch;
  if (g.num_edges() == 0) return batch;
  const auto some_node = [&] {
    return static_cast<NodeId>(rng.below(g.num_nodes));
  };
  switch (shape) {
    case 0:  // tree edges
      for (std::size_t i = 1 + rng.below(8); i > 0 && !forest.tree_edges.empty();
           --i) {
        batch.push_back(
            g.edges[forest.tree_edges[rng.below(forest.tree_edges.size())]]);
      }
      break;
    case 1: {  // a representative's own edges
      const NodeId rep = forest.component[some_node()];
      for (const Edge& e : g.edges) {
        if (e.u == rep || e.v == rep) batch.push_back(e);
      }
      break;
    }
    case 2: {  // every edge of one component
      const NodeId c = forest.component[some_node()];
      for (const Edge& e : g.edges) {
        if (forest.component[e.u] == c) batch.push_back(e);
      }
      break;
    }
    case 3: {  // bridges
      const bridges::BridgeMask& mask = view.run(Bridges{});
      for (std::size_t e = 0; e < mask.size(); ++e) {
        if (mask[e] != 0 && rng.below(3) == 0) batch.push_back(g.edges[e]);
      }
      break;
    }
    default:  // uniform edges
      for (std::size_t i = 1 + rng.below(6); i > 0; --i) {
        batch.push_back(g.edges[rng.below(g.num_edges())]);
      }
  }
  return batch;
}

struct SpliceCoverage {
  std::size_t erase_rounds = 0;  // publishes after exactly one erase batch
  std::size_t spliced = 0;
};

/// Mixed insert and erase rounds on `base`, published every round (now
/// and then after a two-batch gap), each round checked against a scratch
/// Session and the references, and the fence's path against its rule.
SpliceCoverage fuzz_erase_splice(const EdgeList& base, std::uint64_t seed,
                                 int rounds) {
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  util::Rng rng(seed);
  test_support::BatchScript script;
  dynamic::DynamicGraph dg(ctx, base);
  Session session = engine.session(dg);
  View view = session.view();
  const NodeId n = base.num_nodes;
  SpliceCoverage coverage;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t indexed = dg.num_edges();
    std::size_t erase_batches = 0;
    std::size_t erased = 0;
    bool inserted = false;
    const std::size_t steps = rng.below(6) == 0 ? 2 : 1;
    for (std::size_t step = 0; step < steps; ++step) {
      if (rng.below(3) != 0) {
        const int shape = static_cast<int>(rng.below(5));
        const std::vector<Edge> batch = erase_batch(view, rng, shape);
        script.add(round, "erase", batch);
        const std::size_t effective = dg.erase_edges(ctx, batch);
        erase_batches += effective > 0 ? 1 : 0;
        erased += effective;
      } else {
        std::vector<Edge> batch;
        for (std::size_t i = 1 + rng.below(8); i > 0; --i) {
          batch.push_back({static_cast<NodeId>(rng.below(n)),
                           static_cast<NodeId>(rng.below(n))});
        }
        script.add(round, "insert", batch);
        inserted = dg.insert_edges(ctx, batch) > 0 || inserted;
      }
    }
    [&] {
      const Backend held_backend = view.mask_backend();
      const auto runs_before = engine.stats().backend_runs;
      session.refresh();
      const PublishRecord& record = session.last_publish();
      if (erase_batches == 1 && !inserted) {
        ++coverage.erase_rounds;
        const bool applies = dynamic::ConnectivityOracle::incremental_applies(
            erased, indexed);
        EXPECT_EQ(record.path, applies ? PublishPath::kEraseSplice
                                       : PublishPath::kRebuild);
        if (!applies) {
          EXPECT_EQ(record.reason, RebuildReason::kOversized);
        }
        coverage.spliced += record.path == PublishPath::kEraseSplice ? 1 : 0;
      } else if (erase_batches > 0) {
        EXPECT_EQ(record.path, PublishPath::kRebuild);
        EXPECT_EQ(record.reason, RebuildReason::kGap);
      }
      view = session.view();
      ASSERT_EQ(view.epoch(), dg.epoch());
      if (record.path == PublishPath::kEraseSplice) {
        // The splice indexes the spliced tree from its low/high: no
        // backend runs, the mask keeps the previous epoch's backend, and
        // the index is the one a mask would have built.
        EXPECT_EQ(engine.stats().backend_runs, runs_before);
        EXPECT_EQ(view.mask_backend(), held_backend);
        expect_index_is_the_mask_built_one(session.two_ecc_index(), view,
                                           rng);
      }
      expect_forest_is_a_fresh_cc_tree(view, rng);
      expect_views_agree(view, scratch_view(engine, dg), rng);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return coverage;
    }
  }
  return coverage;
}

void report(const char* graph, const SpliceCoverage& coverage, int rounds) {
  std::cout << graph << ": " << coverage.spliced << " of "
            << coverage.erase_rounds
            << " single-erase-batch publishes spliced\n";
  // A coverage claim that holds only statistically: skip it under a small
  // EMC_FUZZ_ROUNDS override.
  if (rounds >= 20) {
    EXPECT_GT(coverage.spliced, 0u);
  }
}

TEST(EraseSpliceFuzz, RoadGraphMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/3131, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report("road", fuzz_erase_splice(gen::road_graph(12, 12, 0.85, 0.05, fuzz.seed),
                                   fuzz.seed, fuzz.rounds),
         fuzz.rounds);
}

TEST(EraseSpliceFuzz, KronGraphMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/5151, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report("kron", fuzz_erase_splice(gen::kron_graph(7, 3, fuzz.seed), fuzz.seed,
                                   fuzz.rounds),
         fuzz.rounds);
}

/// 120 nodes in random recursive trees, 2-12 nodes each, plus a few
/// in-tree chords.
EdgeList many_tree_forest(std::uint64_t seed) {
  util::Rng rng(seed);
  EdgeList base;
  base.num_nodes = 120;
  for (NodeId first = 0; first < base.num_nodes;) {
    const auto size = std::min<NodeId>(static_cast<NodeId>(2 + rng.below(11)),
                                       base.num_nodes - first);
    for (NodeId i = 1; i < size; ++i) {
      base.edges.push_back(
          {static_cast<NodeId>(first + rng.below(i)), first + i});
    }
    if (size > 3) base.edges.push_back({first, first + size - 1});
    first += size;
  }
  return base;
}

TEST(EraseSpliceFuzz, ManyComponentForestMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/7171, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report("forest",
         fuzz_erase_splice(many_tree_forest(fuzz.seed), fuzz.seed,
                           fuzz.rounds),
         fuzz.rounds);
}

/// One insert batch that links trees: cross edges between random
/// components, each joining two groups the batch has not joined yet (so the
/// suffix replays), and a few intra-component edges. No cross edge when
/// every node shares one component.
std::vector<Edge> link_batch(const View& view, util::Rng& rng) {
  const std::vector<NodeId>& component = view.forest().component;
  const auto n = static_cast<NodeId>(component.size());
  const auto some_node = [&] { return static_cast<NodeId>(rng.below(n)); };
  std::vector<Edge> batch;
  test_support::UnionFind joined(n);  // over component labels
  for (std::size_t want = 1 + rng.below(6), tries = 0;
       batch.size() < want && tries < 256; ++tries) {
    const NodeId u = some_node();
    const NodeId v = some_node();
    if (component[u] != component[v] &&
        joined.unite(component[u], component[v])) {
      batch.push_back({u, v});
    }
  }
  for (std::size_t i = rng.below(3), tries = 0; i > 0 && tries < 256;
       ++tries) {
    const NodeId u = some_node();
    const NodeId v = some_node();
    if (u != v && component[u] == component[v]) {
      batch.push_back({u, v});
      --i;
    }
  }
  return batch;
}

/// Insert rounds that link trees on `base`, published every round, with an
/// erase round whenever fewer than two components are left (or now and
/// then) to split them again. Every round is checked against a scratch
/// Session and the references; every link round must replay. Returns the
/// number of link replays.
std::size_t fuzz_link_splice(const EdgeList& base, std::uint64_t seed,
                             int rounds) {
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  util::Rng rng(seed);
  test_support::BatchScript script;
  dynamic::DynamicGraph dg(ctx, base);
  Session session = engine.session(dg);
  View view = session.view();
  std::size_t link_replays = 0;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Edge> batch =
        view.num_components() < 2 || rng.below(4) == 0
            ? std::vector<Edge>{}
            : link_batch(view, rng);
    const bool link = !batch.empty();
    if (link) {
      script.add(round, "insert", batch);
      dg.insert_edges(ctx, batch);
    } else {
      batch = erase_batch(view, rng, 1 + static_cast<int>(rng.below(3)));
      script.add(round, "erase", batch);
      dg.erase_edges(ctx, batch);
    }
    [&] {
      session.refresh();
      if (link) {
        EXPECT_EQ(session.last_publish().path, PublishPath::kReplay);
        ++link_replays;
      }
      view = session.view();
      ASSERT_EQ(view.epoch(), dg.epoch());
      expect_forest_is_a_fresh_cc_tree(view, rng);
      expect_views_agree(view, scratch_view(engine, dg), rng);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return link_replays;
    }
  }
  return link_replays;
}

void report_links(const char* graph, std::size_t link_replays, int rounds) {
  std::cout << graph << ": " << link_replays << " link replays\n";
  if (rounds >= 20) {
    EXPECT_GT(link_replays, 0u);
  }
}

TEST(LinkSpliceFuzz, RoadGraphMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/3232, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report_links("road",
               fuzz_link_splice(gen::road_graph(12, 12, 0.85, 0.05, fuzz.seed),
                                fuzz.seed, fuzz.rounds),
               fuzz.rounds);
}

TEST(LinkSpliceFuzz, KronGraphMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/5252, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report_links("kron",
               fuzz_link_splice(gen::kron_graph(7, 3, fuzz.seed), fuzz.seed,
                                fuzz.rounds),
               fuzz.rounds);
}

TEST(LinkSpliceFuzz, ManyComponentForestMatchesScratchSessions) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/7272, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  report_links("forest",
               fuzz_link_splice(many_tree_forest(fuzz.seed), fuzz.seed,
                                fuzz.rounds),
               fuzz.rounds);
}

// ------------------------------------------------------------ fault sweep

/// Faults one publish at every hit of `site` in turn, with a View held on
/// the previous epoch: an erase splice, or (`link`) a replay whose cross
/// edges link trees. A fault inside the forest edit installs nothing: the
/// session's record, path and counters stay as they were. A fault past it
/// (an erase splice's mask or 2-ecc index; a replay builds nothing after
/// it) leaves the spliced record, which the retry completes. Either way
/// the retry's View agrees with a scratch Session, the edit ran exactly
/// once, and the held View is frozen.
void sweep_publish_faults(const char* site, bool link) {
  namespace failpoint = util::failpoint;
  failpoint::disable_all();
  Engine engine({.device_workers = 2});
  const EdgeList base = link ? many_tree_forest(11)
                             : gen::road_graph(10, 10, 0.85, 0.05, 11);
  const PublishPath path =
      link ? PublishPath::kReplay : PublishPath::kEraseSplice;
  std::vector<Edge> batch;
  std::uint64_t launches = 0;  // device launches of the unfaulted publish,
                               // more than its arena growths
  std::size_t faulted = 0;
  for (std::uint64_t k = 0; k <= launches + 2; ++k) {
    SCOPED_TRACE(std::string(site) + ":" + std::to_string(k));
    dynamic::DynamicGraph dg(engine.device(), base);
    Session session = engine.session(dg);
    View held;
    CanonicalEdgeSet held_bridges;
    std::size_t held_blocks = 0;
    std::size_t held_components = 0;
    {
      failpoint::ScopedSuspend quiet;
      held = session.view();
      held_bridges = bridge_set(held);
      held_blocks = session.two_ecc_index().num_blocks();
      held_components = held.num_components();
      const graph::EdgeSpan g = held.edge_span();
      if (batch.empty() && link) {
        // A chain over the first components: each representative to the
        // node before it, in an earlier component.
        const std::vector<NodeId>& component = held.forest().component;
        for (NodeId v = 1; v < g.num_nodes && batch.size() < 8; ++v) {
          if (component[v] == v) batch.push_back({v - 1, v});
        }
      } else if (batch.empty()) {
        // Tree edges, a bridge and a non-tree edge.
        for (std::size_t i = 0; i < held.forest().tree_edges.size(); i += 9) {
          batch.push_back(g.edges[held.forest().tree_edges[i]]);
        }
        const bridges::BridgeMask& mask = held.run(Bridges{});
        batch.push_back(g.edges[std::find(mask.begin(), mask.end(), 1) -
                                mask.begin()]);
        batch.push_back(g.edges[g.num_edges() / 2]);
      }
      ASSERT_GT(link ? dg.insert_edges(engine.device(), batch)
                     : dg.erase_edges(engine.device(), batch),
                0u);
      // A cold arena: every scratch slot of the publish grows it, so each
      // is an arena.alloc hit.
      engine.device().arena().release();
    }
    const PublishRecord before = session.last_publish();
    if (k == 0) {
      const std::uint64_t start = engine.device_launches();
      session.refresh();
      launches = engine.device_launches() - start;
      ASSERT_GT(launches, 0u);
    } else {
      ASSERT_TRUE(failpoint::configure(site, std::to_string(k).c_str()));
      bool threw = false;
      try {
        session.refresh();
      } catch (const failpoint::InjectedFault&) {
        threw = true;
      } catch (const std::bad_alloc&) {
        threw = true;
      }
      failpoint::disable_all();
      if (threw) {
        ++faulted;
        if (session.publish_rebuilds() + session.publish_replays() == 1) {
          // The fault struck inside the forest edit: nothing was installed.
          EXPECT_EQ(session.last_publish().epoch, before.epoch);
          EXPECT_EQ(session.last_publish().path, before.path);
          EXPECT_EQ(session.two_ecc_index().num_blocks(), held_blocks);
        } else {
          EXPECT_EQ(session.last_publish().path, path);
        }
      }
      session.refresh();
    }
    EXPECT_EQ(session.publish_rebuilds(), link ? 1u : 2u);
    EXPECT_EQ(session.publish_replays(), link ? 1u : 0u);
    EXPECT_EQ(session.last_publish().path, path);
    const View got = session.view();
    ASSERT_EQ(got.epoch(), dg.epoch());
    util::Rng rng(k);
    expect_forest_is_a_fresh_cc_tree(got, rng);
    expect_views_agree(got, scratch_view(engine, dg), rng);
    EXPECT_EQ(held.epoch(), 0u);
    EXPECT_EQ(bridge_set(held), held_bridges);
    EXPECT_EQ(held.num_components(), held_components);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(faulted, 0u);
}

TEST(EraseSpliceFaults, SpliceRetriesCleanlyAfterAFaultAtEveryLaunch) {
  sweep_publish_faults(util::failpoint::kDeviceLaunch, /*link=*/false);
}

TEST(EraseSpliceFaults, SpliceRetriesCleanlyAfterAFaultAtEveryAllocation) {
  sweep_publish_faults(util::failpoint::kArenaAlloc, /*link=*/false);
}

TEST(LinkSpliceFaults, LinkRetriesCleanlyAfterAFaultAtEveryLaunch) {
  sweep_publish_faults(util::failpoint::kDeviceLaunch, /*link=*/true);
}

TEST(LinkSpliceFaults, LinkRetriesCleanlyAfterAFaultAtEveryAllocation) {
  sweep_publish_faults(util::failpoint::kArenaAlloc, /*link=*/true);
}

}  // namespace
}  // namespace emc::engine
