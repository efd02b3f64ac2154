#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <set>
#include <utility>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "bridges/dfs_bridges.hpp"
#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/oracle.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::dynamic {
namespace {

using graph::Edge;
using graph::EdgeList;

std::set<std::pair<NodeId, NodeId>> edge_set(graph::EdgeSpan g) {
  std::set<std::pair<NodeId, NodeId>> s;
  for (const Edge& e : g.edges) {
    s.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return s;
}

void expect_oracle_matches_reference(const device::Context& ctx,
                                     const DynamicGraph& dg,
                                     const ConnectivityOracle& oracle,
                                     util::Rng& rng, int num_queries,
                                     const char* label) {
  const test_support::ReferenceOracle ref(ctx, dg.snapshot());
  ASSERT_EQ(oracle.num_bridges(), ref.num_bridges) << label;
  for (int q = 0; q < num_queries; ++q) {
    const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
    ASSERT_EQ(oracle.same_2ecc(u, v), ref.comp[u] == ref.comp[v])
        << label << ": same_2ecc(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.bridges_on_path(u, v), ref.bridges_on_path(u, v))
        << label << ": bridges_on_path(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.component_size(u), ref.comp_size[u])
        << label << ": component_size(" << u << ")";
  }
}

class DynamicParam : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, DynamicParam, ::testing::Values(1u, 4u));

// ------------------------------------------------------------- edge store

TEST_P(DynamicParam, InsertEraseBasics) {
  DynamicGraph dg(5);
  EXPECT_EQ(dg.num_edges(), 0u);
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 3}}), 3u);
  EXPECT_EQ(dg.epoch(), 1u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_TRUE(dg.has_edge(2, 1));  // undirected
  EXPECT_FALSE(dg.has_edge(0, 3));
  EXPECT_FALSE(dg.has_edge(1, 1));
  EXPECT_FALSE(dg.has_edge(1, 9));  // out of range
  EXPECT_EQ(dg.erase_edges(ctx_, {{1, 2}}), 1u);
  EXPECT_FALSE(dg.has_edge(1, 2));
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_EQ(dg.epoch(), 2u);
}

TEST_P(DynamicParam, NoOpBatchesDoNotAdvanceEpoch) {
  DynamicGraph dg(4);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}});
  const std::uint64_t epoch = dg.epoch();
  // Empty batch.
  EXPECT_EQ(dg.insert_edges(ctx_, {}), 0u);
  // All duplicates (including reversed orientation and in-batch repeats).
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 0}, {2, 1}, {0, 1}}), 0u);
  // Self-loops and out-of-range endpoints are dropped.
  EXPECT_EQ(dg.insert_edges(ctx_, {{2, 2}, {-1, 0}, {0, 9}}), 0u);
  // Erasing absent edges.
  EXPECT_EQ(dg.erase_edges(ctx_, {{0, 2}, {3, 1}}), 0u);
  EXPECT_EQ(dg.epoch(), epoch);
  EXPECT_EQ(dg.num_edges(), 2u);
}

TEST_P(DynamicParam, BatchDuplicatesCountOnce) {
  DynamicGraph dg(4);
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 0}, {0, 1}, {2, 3}}), 2u);
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_TRUE(dg.has_edge(1, 0));
  EXPECT_TRUE(dg.has_edge(3, 2));
  EXPECT_EQ(edge_set(dg.snapshot()),
            (std::set<std::pair<NodeId, NodeId>>{{0, 1}, {2, 3}}));
}

TEST_P(DynamicParam, ConstructorCanonicalizesInitialEdges) {
  EdgeList raw;
  raw.num_nodes = 4;
  raw.edges = {{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 2}, {2, 3}};
  const DynamicGraph dg(ctx_, raw);
  EXPECT_EQ(dg.num_edges(), 3u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_FALSE(dg.has_edge(0, 0));
  const graph::EdgeSpan snap = dg.snapshot();
  const EdgeList copy{snap.num_nodes, {snap.edges.begin(), snap.edges.end()}};
  EXPECT_TRUE(copy.valid());
  EXPECT_EQ(edge_set(snap),
            (std::set<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST_P(DynamicParam, InsertOnlySnapshotsShareOneLog) {
  DynamicGraph dg(ctx_, gen::cycle_graph(64));
  const EdgeSnapshot first = dg.snapshot();
  ASSERT_EQ(first.num_edges(), 64u);
  const Edge* log = first.span().edges.data();
  EXPECT_EQ(dg.snapshot().span().edges.data(), log);

  // No-op batches append nothing: same buffer, same length, same epoch.
  dg.insert_edges(ctx_, {{0, 1}, {5, 5}, {-1, 3}});
  dg.erase_edges(ctx_, {{0, 2}});
  EXPECT_EQ(dg.snapshot().num_edges(), 64u);
  EXPECT_EQ(dg.snapshot().span().edges.data(), log);

  // Each insert-only epoch's snapshot is a longer prefix of the SAME
  // buffer, exactly its epoch's edge count long; earlier handles keep
  // their own length.
  dg.insert_edges(ctx_, {{0, 2}, {4, 9}});
  const EdgeSnapshot second = dg.snapshot();
  dg.insert_edges(ctx_, {{7, 3}});
  const EdgeSnapshot third = dg.snapshot();
  EXPECT_EQ(second.span().edges.data(), log);
  EXPECT_EQ(third.span().edges.data(), log);
  EXPECT_EQ(first.num_edges(), 64u);
  EXPECT_EQ(second.num_edges(), 66u);
  EXPECT_EQ(third.num_edges(), 67u);
  EXPECT_EQ(third.num_edges(), dg.num_edges());
  EXPECT_EQ(third.span().edges[66], (Edge{3, 7}));  // canonical u < v
}

TEST_P(DynamicParam, SnapshotCsrAlignsWithSnapshotEdgeOrder) {
  DynamicGraph dg(5);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  const graph::EdgeSpan snap = dg.snapshot();
  const graph::Csr csr = graph::build_csr(ctx_, snap);
  ASSERT_EQ(csr.num_edges(), snap.edges.size());
  for (NodeId v = 0; v < dg.num_nodes(); ++v) {
    for (EdgeId i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
      const Edge e = snap.edges[csr.edge_ids[i]];
      EXPECT_TRUE((e.u == v && e.v == csr.neighbors[i]) ||
                  (e.v == v && e.u == csr.neighbors[i]));
    }
  }
}

TEST_P(DynamicParam, PinnedSnapshotsReadTheirOwnEdgesAcrossAppendsAndRegrow) {
  // A small seed gives the log little slack, so the appends below regrow it
  // several times while earlier snapshots stay pinned on older buffers.
  DynamicGraph dg(ctx_, gen::cycle_graph(32));
  util::Rng rng(19);
  struct Pinned {
    EdgeSnapshot snap;
    std::vector<Edge> edges;  // copied when pinned
    std::set<std::pair<NodeId, NodeId>> expected;
  };
  std::vector<Pinned> pinned;
  std::set<std::pair<NodeId, NodeId>> ref = edge_set(dg.snapshot());
  std::set<const Edge*> buffers;
  const auto pin = [&] {
    const EdgeSnapshot snap = dg.snapshot();
    buffers.insert(snap.span().edges.data());
    pinned.push_back(
        {snap, {snap.span().edges.begin(), snap.span().edges.end()}, ref});
  };
  pin();
  for (int round = 0; round < 24; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.below(32));
      const auto v = static_cast<NodeId>(rng.below(32));
      batch.push_back({u, v});
      if (u != v) ref.insert({std::min(u, v), std::max(u, v)});
    }
    dg.insert_edges(ctx_, batch);
    pin();
  }
  EXPECT_GT(buffers.size(), 2u);  // the log regrew at least twice

  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const graph::EdgeSpan snap = pinned[i].snap;
    SCOPED_TRACE("pinned snapshot " + std::to_string(i));
    ASSERT_EQ(snap.num_edges(), pinned[i].edges.size());
    EXPECT_TRUE(std::equal(snap.edges.begin(), snap.edges.end(),
                           pinned[i].edges.begin()));
    EXPECT_EQ(edge_set(snap), pinned[i].expected);
    const graph::Csr csr = graph::build_csr(ctx_, snap);
    EXPECT_TRUE(graph::csr_matches(snap, csr));
    for (NodeId v = 0; v < dg.num_nodes(); ++v) {
      for (EdgeId k = csr.row_offsets[v]; k < csr.row_offsets[v + 1]; ++k) {
        const Edge e = snap.edges[csr.edge_ids[k]];
        EXPECT_TRUE((e.u == v && e.v == csr.neighbors[k]) ||
                    (e.v == v && e.u == csr.neighbors[k]));
      }
    }
  }

  // An erase builds a new log; earlier snapshots keep theirs, and every Csr
  // stays exact.
  dg.erase_edges(ctx_, {{0, 1}});
  ref.erase({0, 1});
  const EdgeSnapshot after = dg.snapshot();
  EXPECT_EQ(buffers.count(after.span().edges.data()), 0u);
  EXPECT_EQ(edge_set(after), ref);
  EXPECT_TRUE(graph::csr_matches(after, graph::build_csr(ctx_, after)));
  EXPECT_EQ(edge_set(pinned.back().snap), pinned.back().expected);
  dg.insert_edges(ctx_, {{3, 13}});
  const EdgeSnapshot appended = dg.snapshot();
  EXPECT_EQ(appended.span().edges.data(), after.span().edges.data());
  EXPECT_TRUE(graph::csr_matches(appended, graph::build_csr(ctx_, appended)));
}

TEST_P(DynamicParam, ManySmallBatchesPreserveEdges) {
  DynamicGraph dg(50);
  std::set<std::pair<NodeId, NodeId>> ref;
  util::Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<NodeId>(rng.below(50));
      const auto v = static_cast<NodeId>(rng.below(50));
      batch.push_back({u, v});
      if (u != v) ref.insert({std::min(u, v), std::max(u, v)});
    }
    dg.insert_edges(ctx_, batch);
  }
  EXPECT_EQ(edge_set(dg.snapshot()), ref);
  EXPECT_EQ(dg.num_edges(), ref.size());
  for (const auto& [u, v] : ref) EXPECT_TRUE(dg.has_edge(v, u));
}

TEST_P(DynamicParam, InsertedSinceConcatenatesAppliedBatches) {
  DynamicGraph dg(ctx_, gen::cycle_graph(5));
  // The log exists from construction: the seeded edges are epoch 0 itself.
  ASSERT_TRUE(dg.inserted_since(0).has_value());
  EXPECT_TRUE(dg.inserted_since(0)->empty());

  const auto since = [&](std::uint64_t epoch) {
    const auto suffix = dg.inserted_since(epoch);
    return suffix ? std::vector<Edge>(suffix->begin(), suffix->end())
                  : std::vector<Edge>{{-1, -1}};
  };
  // Applied form: canonical (u < v), deduplicated, invalid and present
  // edges dropped, sorted within a batch; batches in apply order.
  dg.insert_edges(ctx_, {{3, 0}, {1, 3}, {0, 3}, {2, 2}, {0, 1}});
  dg.insert_edges(ctx_, {{0, 1}});  // no-op: appends nothing
  dg.erase_edges(ctx_, {{0, 2}});   // no-op erase: the log survives
  dg.insert_edges(ctx_, {{4, 2}});
  EXPECT_EQ(dg.epoch(), 2u);
  EXPECT_EQ(since(0), (std::vector<Edge>{{0, 3}, {1, 3}, {2, 4}}));
  EXPECT_EQ(since(1), (std::vector<Edge>{{2, 4}}));
  EXPECT_TRUE(since(2).empty());
  EXPECT_FALSE(dg.inserted_since(3).has_value());  // a future epoch

  // An effective erase starts a new log at its epoch: no suffix spans it.
  dg.erase_edges(ctx_, {{1, 3}});
  EXPECT_FALSE(dg.inserted_since(0).has_value());
  EXPECT_FALSE(dg.inserted_since(2).has_value());
  ASSERT_TRUE(dg.inserted_since(3).has_value());
  EXPECT_TRUE(dg.inserted_since(3)->empty());
  dg.insert_edges(ctx_, {{1, 4}});
  EXPECT_FALSE(dg.inserted_since(2).has_value());
  EXPECT_EQ(since(3), (std::vector<Edge>{{1, 4}}));
}

TEST_P(DynamicParam, MixedBatchesMatchSetReferenceAcrossFolds) {
  // A 600-edge seed folds the recent key run into the index whenever it
  // passes a small fraction of it, so the insert batches below cross the
  // fold many times, with erases landing on both runs in between.
  const auto fuzz = test_support::fuzz_run(/*seed=*/2741, /*rounds=*/160);
  SCOPED_TRACE(fuzz.trace);
  constexpr NodeId kNodes = 120;
  util::Rng rng(fuzz.seed);
  DynamicGraph dg(ctx_, gen::er_graph(kNodes, 600, fuzz.seed));
  std::set<std::pair<NodeId, NodeId>> ref = edge_set(dg.snapshot());
  std::uint64_t base = dg.epoch();   // the last effective erase's epoch
  std::vector<Edge> since_base;      // applied inserts since then
  const auto random_edge = [&] {
    return Edge{static_cast<NodeId>(rng.below(kNodes + 2)) - 1,
                static_cast<NodeId>(rng.below(kNodes + 2)) - 1};
  };

  for (int round = 0; round < fuzz.rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool erase = rng.below(3) == 0;
    std::vector<Edge> batch;
    const std::size_t size = rng.below(24);
    const std::vector<std::pair<NodeId, NodeId>> pool(ref.begin(), ref.end());
    for (std::size_t i = 0; i < size; ++i) {
      if (erase && !pool.empty() && rng.below(3) != 0) {
        const auto& [u, v] = pool[rng.below(pool.size())];
        batch.push_back(rng.below(2) == 0 ? Edge{u, v} : Edge{v, u});
      } else {
        batch.push_back(random_edge());
      }
    }
    // The reference's view of the batch: canonical, valid, deduplicated,
    // and effective against the current set.
    std::set<std::pair<NodeId, NodeId>> applied;
    for (const Edge& e : batch) {
      if (!graph::edge_valid(e.u, e.v, kNodes)) continue;
      const std::pair<NodeId, NodeId> key{std::min(e.u, e.v),
                                          std::max(e.u, e.v)};
      if (ref.count(key) == (erase ? 1u : 0u)) applied.insert(key);
    }

    const std::uint64_t epoch = dg.epoch();
    const std::size_t changed =
        erase ? dg.erase_edges(ctx_, batch) : dg.insert_edges(ctx_, batch);
    ASSERT_EQ(changed, applied.size());
    ASSERT_EQ(dg.epoch(), epoch + (applied.empty() ? 0 : 1));
    for (const auto& key : applied) {
      if (erase) {
        ref.erase(key);
      } else {
        ref.insert(key);
        since_base.push_back({key.first, key.second});
      }
    }
    if (erase && !applied.empty()) {
      base = dg.epoch();
      since_base.clear();
    }

    for (const Edge& e : batch) {
      const bool present =
          ref.count({std::min(e.u, e.v), std::max(e.u, e.v)}) != 0;
      ASSERT_EQ(dg.has_edge(e.u, e.v), present) << e.u << "-" << e.v;
    }
    ASSERT_EQ(dg.num_edges(), ref.size());
    const EdgeSnapshot snap = dg.snapshot();
    ASSERT_EQ(snap.num_edges(), ref.size());
    ASSERT_EQ(edge_set(snap), ref);
    const auto suffix = dg.inserted_since(base);
    ASSERT_TRUE(suffix.has_value());
    ASSERT_EQ(std::vector<Edge>(suffix->begin(), suffix->end()), since_base);
    if (base > 0) {
      ASSERT_FALSE(dg.inserted_since(base - 1).has_value());
    }
  }
}

TEST_P(DynamicParam, FaultedUpdatesChangeNothingAndTheRetryApplies) {
  namespace failpoint = util::failpoint;
  failpoint::disable_all();
  // A store whose recent key run is non-empty, so the insert below folds it
  // into the index and the erase below hits both runs. It is built on its
  // own context, so each update below runs on a cold arena that must grow.
  const auto seeded = [&] {
    const device::Context setup(1);
    auto dg = std::make_unique<DynamicGraph>(setup, gen::er_graph(80, 600, 5));
    dg->insert_edges(setup, {{0, 79}, {1, 78}, {2, 77}, {3, 76}});
    return dg;
  };
  const std::vector<Edge> inserts{{4, 75}, {5, 74}, {6, 73}, {7, 72},
                                  {8, 71}, {9, 70}, {10, 69}, {0, 79}};
  std::vector<Edge> erases{{0, 79}, {2, 77}, {11, 12}};
  {
    const auto dg = seeded();
    const EdgeSnapshot snap = dg->snapshot();
    for (std::size_t e = 0; e < snap.num_edges(); e += 97) {
      erases.push_back(snap.span().edges[e]);
    }
  }
  struct Op {
    const char* name;
    std::size_t (DynamicGraph::*apply)(const device::Context&,
                                       const std::vector<Edge>&);
    const std::vector<Edge>* batch;
  };
  const Op ops[] = {{"insert", &DynamicGraph::insert_edges, &inserts},
                    {"erase", &DynamicGraph::erase_edges, &erases}};

  for (const char* site : {failpoint::kArenaAlloc, failpoint::kDeviceLaunch}) {
    for (const Op& op : ops) {
      SCOPED_TRACE(std::string(site) + " on " + op.name);
      // A dry run counts the site's hits in one call (armed far past them).
      std::uint64_t hits = 0;
      std::size_t expected = 0;
      std::set<std::pair<NodeId, NodeId>> after;
      {
        const device::Context ctx(GetParam());
        const auto dg = seeded();
        ASSERT_TRUE(failpoint::configure(site, "1000000"));
        expected = (*dg.*op.apply)(ctx, *op.batch);
        hits = failpoint::hits(site);
        failpoint::disable_all();
        after = edge_set(dg->snapshot());
      }
      ASSERT_GT(expected, 0u);
      ASSERT_GT(hits, 0u);
      std::size_t faulted = 0;
      for (std::uint64_t k = 1; k <= hits; ++k) {
        SCOPED_TRACE("hit " + std::to_string(k));
        const device::Context ctx(GetParam());
        const auto dg = seeded();
        const EdgeSnapshot before = dg->snapshot();
        const std::vector<Edge> before_edges(before.span().edges.begin(),
                                             before.span().edges.end());
        const std::uint64_t epoch = dg->epoch();
        const auto suffix = dg->inserted_since(0);
        ASSERT_TRUE(suffix.has_value());
        const std::vector<Edge> before_suffix(suffix->begin(), suffix->end());

        ASSERT_TRUE(failpoint::configure(site, std::to_string(k).c_str()));
        bool threw = false;
        try {
          (*dg.*op.apply)(ctx, *op.batch);
        } catch (const std::exception&) {
          threw = true;
        }
        failpoint::disable_all();
        if (threw) {
          ++faulted;
          ASSERT_EQ(dg->epoch(), epoch);
          const EdgeSnapshot now = dg->snapshot();
          ASSERT_EQ(now.span().edges.data(), before.span().edges.data());
          ASSERT_EQ(std::vector<Edge>(now.span().edges.begin(),
                                      now.span().edges.end()),
                    before_edges);
          const auto now_suffix = dg->inserted_since(0);
          ASSERT_TRUE(now_suffix.has_value());
          ASSERT_EQ(std::vector<Edge>(now_suffix->begin(), now_suffix->end()),
                    before_suffix);
          for (const Edge& e : before_edges) {
            ASSERT_TRUE(dg->has_edge(e.u, e.v));
          }
          ASSERT_EQ((*dg.*op.apply)(ctx, *op.batch), expected);  // the retry
        }
        ASSERT_EQ(dg->epoch(), epoch + 1);
        ASSERT_EQ(edge_set(dg->snapshot()), after);
        ASSERT_EQ(dg->num_edges(), after.size());
      }
      EXPECT_GT(faulted, 0u);
    }
  }
}

// ------------------------------------------------------------- the oracle
//
// The 2-ecc index is driven the way every caller drives it: through a
// Session on the graph, whose TwoEcc request brings it to the graph's epoch.

/// Runs a TwoEcc request; true iff it moved the session to a new record
/// (a replay or a rebuild), false if the index was already current.
bool advance(engine::Session& session) {
  const auto steps = [&] {
    return session.publish_replays() + session.publish_rebuilds();
  };
  const std::size_t before = steps();
  session.run(engine::TwoEcc{});
  return steps() > before;
}

TEST_P(DynamicParam, OracleTracksBridgeAcrossUpdates) {
  // Two triangles joined by a bridge.
  DynamicGraph dg(6);
  dg.insert_edges(ctx_,
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 1u);
  EXPECT_TRUE(session.two_ecc_index().same_2ecc(0, 2));
  EXPECT_FALSE(session.two_ecc_index().same_2ecc(0, 3));
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 5), 1);
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 1), 0);
  EXPECT_EQ(session.two_ecc_index().component_size(0), 3);

  // The graph loses all bridges after an insert closing a second path.
  dg.insert_edges(ctx_, {{1, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  EXPECT_TRUE(session.two_ecc_index().same_2ecc(0, 5));
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 5), 0);
  EXPECT_EQ(session.two_ecc_index().component_size(0), 6);
  EXPECT_EQ(session.two_ecc_index().num_blocks(), 1u);
}

TEST_P(DynamicParam, OracleOnDisconnectedGraphGainingConnectingEdge) {
  DynamicGraph dg(7);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 0},    // triangle
                         {3, 4}, {4, 5}, {5, 3}});  // triangle, node 6 alone
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);
  advance(session);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  // Different components.
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 3), kNoNode);
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 6), kNoNode);
  EXPECT_EQ(session.two_ecc_index().component_size(6), 1);

  dg.insert_edges(ctx_, {{2, 3}});  // the connecting edge
  advance(session);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 1u);
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 3), 1);
  // 6 is still isolated.
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 6), kNoNode);
}

TEST_P(DynamicParam, ConstructorIgnoresOutOfRangeEndpoints) {
  graph::EdgeList raw;
  raw.num_nodes = 3;
  raw.edges = {{0, 1}, {0, 7}, {-2, 1}, {1, 2}};
  const DynamicGraph dg(ctx_, raw);
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_TRUE(dg.has_edge(1, 2));
}

// Adversarial inputs the dynamic path produces, cross-checked against the
// sequential reference.
TEST_P(DynamicParam, TwoEccOnDynamicSnapshots) {
  DynamicGraph dg(6);
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);

  // Disconnected snapshot (two paths): every node is its own 2ecc.
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  advance(session);
  const graph::EdgeSpan snap = dg.snapshot();
  const auto mask =
      bridges::find_bridges_dfs(graph::build_csr(ctx_, dg.snapshot()));
  const auto& labels = session.two_ecc_index().block_labels();
  EXPECT_EQ(test_support::canonical_partition(labels),
            test_support::canonical_partition(
                test_support::two_ecc_labels(snap, mask)));
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(labels[u] == labels[v],
                session.two_ecc_index().same_2ecc(u, v));
    }
  }
  EXPECT_EQ(session.two_ecc_index().num_blocks(), 6u);

  // Cycle-closing inserts kill every bridge.
  dg.insert_edges(ctx_, {{2, 3}, {5, 0}});
  advance(session);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  EXPECT_EQ(session.two_ecc_index().num_blocks(), 1u);
}

// ------------------------------------------------ launch-count guarantees

TEST(DynamicLaunches, QueryBatchesAreSingleKernels) {
  engine::Engine engine({.device_workers = 2});
  DynamicGraph dg(engine.device(), gen::road_graph(20, 20, 0.7, 0.05, 3));
  engine::Session session = engine.session(dg);
  engine::Policy device_route;
  device_route.min_device_batch = 1;
  util::Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> queries(4096);
  for (auto& [u, v] : queries) {
    u = static_cast<NodeId>(rng.below(dg.num_nodes()));
    v = static_cast<NodeId>(rng.below(dg.num_nodes()));
  }
  std::vector<NodeId> singles(4096);
  for (auto& v : singles) v = static_cast<NodeId>(rng.below(dg.num_nodes()));
  session.run(engine::Same2Ecc{queries});  // 2-ecc index in place

  // Each forced device batch is ONE answer kernel — no per-query launches.
  std::uint64_t before = engine.device_launches();
  session.run(engine::Same2Ecc{queries}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);

  before = engine.device_launches();
  session.run(engine::BridgesOnPath{queries}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);

  before = engine.device_launches();
  session.run(engine::ComponentSize{singles}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);
}

TEST(DynamicLaunches, UpdateBatchLaunchesIndependentOfBatchSize) {
  const device::Context ctx = device::Context::device();
  auto launches_for = [&](std::size_t batch_size) {
    DynamicGraph dg(2000);
    util::Rng rng(batch_size);
    std::vector<Edge> batch(batch_size);
    for (auto& e : batch) {
      e.u = static_cast<NodeId>(rng.below(2000));
      e.v = static_cast<NodeId>(rng.below(2000));
    }
    const std::uint64_t before = ctx.launch_count();
    dg.insert_edges(ctx, batch);
    return ctx.launch_count() - before;
  };
  // Sort pass counts adapt to key bits, not batch size; everything else is
  // a fixed kernel sequence. A 64x larger batch must not launch more. Both
  // sizes sit past the host-sort crossover of graph::canonical_keys; a batch
  // below it skips the radix sort's launches.
  EXPECT_LE(launches_for(1 << 20), launches_for(1 << 14) + 2);
  EXPECT_LE(launches_for(1 << 10), launches_for(1 << 14));
}

// ------------------------------------------------------------------- fuzz

TEST(DynamicFuzz, OracleMatchesFromScratchRecompute) {
  const device::Context ctx(2);
  constexpr NodeId kNodes = 48;
  const std::uint64_t seed = test_support::fuzz_seed(2026);
  const int rounds = test_support::fuzz_rounds(120);
  util::Rng rng(seed);
  test_support::BatchScript script;

  DynamicGraph dg(kNodes);
  engine::Engine engine({.device_workers = 2});
  engine::Session session = engine.session(dg);
  std::set<std::pair<NodeId, NodeId>> ref_edges;
  std::uint64_t last_epoch = ~std::uint64_t{0};
  std::size_t epochs = 0;  // distinct epochs the index was asked at

  for (int round = 0; round < rounds; ++round) {
    std::vector<Edge> batch;
    const std::size_t size = 1 + rng.below(24);
    const bool erase = round % 3 == 2 && !ref_edges.empty();
    if (erase) {
      // Mix of existing edges and absent ones (which must be ignored).
      std::vector<std::pair<NodeId, NodeId>> pool(ref_edges.begin(),
                                                  ref_edges.end());
      for (std::size_t i = 0; i < size; ++i) {
        if (rng.below(2) == 0) {
          const auto& [u, v] = pool[rng.below(pool.size())];
          batch.push_back({u, v});
        } else {
          batch.push_back({static_cast<NodeId>(rng.below(kNodes)),
                           static_cast<NodeId>(rng.below(kNodes))});
        }
      }
      for (const Edge& e : batch) {
        ref_edges.erase({std::min(e.u, e.v), std::max(e.u, e.v)});
      }
      script.add(round, "erase", batch);
      dg.erase_edges(ctx, batch);
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const auto u = static_cast<NodeId>(rng.below(kNodes));
        const auto v = static_cast<NodeId>(rng.below(kNodes));
        batch.push_back({u, v});
        if (u != v) ref_edges.insert({std::min(u, v), std::max(u, v)});
      }
      script.add(round, "insert", batch);
      dg.insert_edges(ctx, batch);
    }
    // The round's asserts live in an immediately-invoked lambda so a fatal
    // failure returns HERE (not out of the test), letting the replay print
    // below fire for every mismatch.
    [&] {
      ASSERT_EQ(dg.num_edges(), ref_edges.size()) << "round " << round;
      ASSERT_EQ(edge_set(dg.snapshot()), ref_edges) << "round " << round;
      // The index advances exactly once per epoch it is asked at.
      advance(session);
      if (dg.epoch() != last_epoch) ++epochs;
      last_epoch = dg.epoch();
      ASSERT_EQ(session.publish_replays() + session.publish_rebuilds(),
                epochs);
      expect_oracle_matches_reference(
          ctx, dg, session.two_ecc_index(), rng, 24,
          ("round " + std::to_string(round)).c_str());
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
}

}  // namespace
}  // namespace emc::dynamic
