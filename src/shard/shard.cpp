#include "shard/shard.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <tuple>

#include "bcc/bcc.hpp"
#include "bridges/cc_spanning.hpp"
#include "bridges/tarjan_vishkin.hpp"

namespace emc::shard {

// --------------------------------------------------------------- Router

Router::Router(NodeId num_nodes, std::size_t shards)
    : num_nodes_(num_nodes), shards_(shards == 0 ? 1 : shards) {}

bool Router::insert_boundary(NodeId u, NodeId v) {
  const std::uint64_t key = graph::edge_key(u, v);
  std::lock_guard<std::mutex> lock(mu_);
  const bool changed = boundary_.insert(key).second;
  if (changed) ++version_;
  return changed;
}

bool Router::erase_boundary(NodeId u, NodeId v) {
  const std::uint64_t key = graph::edge_key(u, v);
  std::lock_guard<std::mutex> lock(mu_);
  const bool changed = boundary_.erase(key) != 0;
  if (changed) ++version_;
  return changed;
}

std::pair<std::size_t, std::size_t> Router::apply_boundary(
    const std::vector<std::pair<std::uint64_t, bool>>& ops) {
  std::size_t applied = 0;
  std::size_t noops = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, is_insert] : ops) {
    const bool changed =
        is_insert ? boundary_.insert(key).second : boundary_.erase(key) != 0;
    if (changed) {
      ++version_;
      ++applied;
    } else {
      ++noops;
    }
  }
  return {applied, noops};
}

std::pair<std::shared_ptr<const std::vector<graph::Edge>>, std::uint64_t>
Router::boundary_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_version_ != version_ || snapshot_ == nullptr) {
    std::vector<std::uint64_t> keys(boundary_.begin(), boundary_.end());
    std::sort(keys.begin(), keys.end());
    auto edges = std::make_shared<std::vector<graph::Edge>>();
    edges->reserve(keys.size());
    for (const std::uint64_t key : keys) {
      edges->push_back(graph::edge_of_key(key));
    }
    snapshot_ = std::move(edges);
    snapshot_version_ = version_;
  }
  return {snapshot_, snapshot_version_};
}

std::uint64_t Router::boundary_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::size_t Router::boundary_edges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return boundary_.size();
}

// ----------------------------------------------------- ShardedView::State

/// The lazily-built cross-shard vertex-biconnectivity index: per-shard
/// BccIndexes plus the BccIndex of the gadget skeleton (see the stitching
/// note in shard.hpp). Immutable once published under State::bcc.
struct BccStitch {
  /// Pinned per-shard indexes — these keep each shard's epoch artifacts
  /// alive for the skeleton's lifetime.
  std::vector<std::shared_ptr<const bcc::BccIndex>> shard_bcc;
  /// The skeleton's own biconnectivity structure; its blocks restricted
  /// to terminal nodes are exactly the global blocks.
  bcc::BccIndex skeleton;
  /// Per GLOBAL vertex: its skeleton node — the terminal node when the
  /// vertex is preserved (local articulation or boundary endpoint), else
  /// its unique local block's gadget node, else kNoNode (in no block).
  std::vector<NodeId> bcc_node;
  /// Global articulation mask over all n vertices.
  std::vector<std::uint8_t> is_articulation;
};

struct ShardedView::State {
  const engine::Engine* facade = nullptr;  // summary kernels, batch routing
  EpochVector epochs;
  std::uint64_t version = 0;
  std::size_t shards = 0;
  NodeId num_nodes = 0;
  std::vector<engine::View> views;  // epoch-pinned, one per shard
  std::shared_ptr<const std::vector<graph::Edge>> boundary;
  /// Summary node id of shard s's block b is offsets[s] + b.
  std::vector<NodeId> offsets;
  /// Per shard: block label per LOCAL node, borrowed from the pinned
  /// view's frozen 2-ecc index (alive as long as views[s] is).
  std::vector<const std::vector<NodeId>*> labels;
  graph::EdgeList summary_graph;  // shard bridges + boundary (multigraph)
  dynamic::ConnectivityOracle summary;
  /// Component label per summary node (the summary forest's).
  std::vector<NodeId> summary_cc;
  /// Vertex count per summary 2-ecc block: shard-block weights accumulated
  /// under the summary's labels — the global component-size answer.
  std::vector<NodeId> weight;
  /// Per-vertex composed lookups, built once per stitch: hnode[v] is the
  /// summary node of v's shard-local block, glabel[v] that node's global
  /// 2-ecc label. They collapse every query to the same flat label reads
  /// the unsharded oracle does — no per-query modulo or double hop (the
  /// arithmetic form cost >10x on large same-2ecc batches).
  std::vector<NodeId> hnode;
  std::vector<NodeId> glabel;
  std::size_t num_edges = 0;
  std::size_t num_components = 0;
  /// Vertex-biconnectivity stitch, built by the FIRST BCC-family query on
  /// this snapshot (snapshots that never see one pay nothing — the 2-ecc
  /// stitch above stays exactly as cheap as before this family existed).
  /// Built under bcc_mu; immutable once set, and from then on read
  /// lock-free through bcc_ready (per-element queries hit it).
  mutable std::mutex bcc_mu;
  mutable std::shared_ptr<const BccStitch> bcc;
  mutable std::atomic<const BccStitch*> bcc_ready{nullptr};
  const BccStitch& ensure_bcc() const;
};

const BccStitch& ShardedView::State::ensure_bcc() const {
  if (const BccStitch* ready = bcc_ready.load(std::memory_order_acquire)) {
    return *ready;
  }
  std::lock_guard<std::mutex> lock(bcc_mu);
  if (bcc != nullptr) return *bcc;
  auto out = std::make_shared<BccStitch>();
  const std::size_t k = shards;
  const auto n = static_cast<std::size_t>(num_nodes);

  // Per-shard indexes (each builds under its OWN shard engine's lock on
  // first use) and gadget-node numbering: shard s's local block b becomes
  // skeleton node beta[s] + b — all gadget nodes first, terminals after.
  out->shard_bcc.resize(k);
  std::vector<NodeId> beta(k + 1, 0);
  for (std::size_t s = 0; s < k; ++s) {
    out->shard_bcc[s] = views[s].bcc_index();
    beta[s + 1] =
        beta[s] + static_cast<NodeId>(out->shard_bcc[s]->num_blocks);
  }

  // Preserved vertices (terminals): local articulation points plus
  // boundary endpoints. Terminal nodes are numbered in global vertex
  // order so the skeleton is deterministic for a given epoch vector.
  std::vector<std::vector<std::uint8_t>> preserved(k);
  for (std::size_t s = 0; s < k; ++s) {
    const auto& mask = out->shard_bcc[s]->is_articulation;
    preserved[s].assign(mask.begin(), mask.end());
  }
  for (const graph::Edge& e : *boundary) {
    preserved[e.u % k][e.u / k] = 1;
    preserved[e.v % k][e.v / k] = 1;
  }
  out->bcc_node.assign(n, kNoNode);
  NodeId next = beta[k];
  for (std::size_t v = 0; v < n; ++v) {
    if (preserved[v % k][v / k]) out->bcc_node[v] = next++;
  }

  // The skeleton: per local block a 2-connected gadget over its terminals
  // — a cycle gadget-node -> t1 -> ... -> tk -> gadget-node (one edge for
  // a single terminal, an isolated gadget node for none) — plus every
  // boundary edge between terminal nodes. Contracting a block would
  // invent articulations; the gadget keeps any two attachment points on
  // two internally-disjoint paths, exactly like the block it stands for.
  graph::EdgeList skel;
  skel.num_nodes = next;
  for (std::size_t s = 0; s < k; ++s) {
    const bcc::BccIndex& idx = *out->shard_bcc[s];
    const std::size_t ln = preserved[s].size();
    std::vector<std::vector<NodeId>> term(idx.num_blocks);
    for (std::size_t l = 0; l < ln; ++l) {
      const NodeId b = idx.vertex_block[l];
      if (preserved[s][l] && b != kNoNode) {
        term[b].push_back(out->bcc_node[l * k + s]);
      }
    }
    // A block's head has its parent edge OUTSIDE the block, so the pass
    // above never saw it — terminal lists stay duplicate-free.
    for (std::size_t b = 0; b < idx.num_blocks; ++b) {
      const auto h = static_cast<std::size_t>(idx.head[b]);
      if (preserved[s][h]) term[b].push_back(out->bcc_node[h * k + s]);
    }
    for (std::size_t b = 0; b < idx.num_blocks; ++b) {
      const NodeId g = beta[s] + static_cast<NodeId>(b);
      const std::vector<NodeId>& t = term[b];
      if (t.empty()) continue;
      skel.edges.push_back({g, t.front()});
      if (t.size() == 1) continue;
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        skel.edges.push_back({t[i], t[i + 1]});
      }
      skel.edges.push_back({t.back(), g});
    }
  }
  for (const graph::Edge& e : *boundary) {
    skel.edges.push_back({out->bcc_node[e.u], out->bcc_node[e.v]});
  }

  {
    const device::Context& ctx = facade->device();
    const auto device_lock = ctx.exclusive();
    const bridges::SpanningForest forest =
        bridges::cc_spanning_forest(ctx, skel);
    out->skeleton = bcc::BccIndex::build(ctx, skel, forest);
  }

  // Non-preserved vertices map to their unique local block (if any) via
  // the head inverse. A head of >= 2 blocks is an articulation and
  // therefore preserved, so the last-write inverse is only ever read
  // where it is unique.
  for (std::size_t s = 0; s < k; ++s) {
    const bcc::BccIndex& idx = *out->shard_bcc[s];
    const std::size_t ln = preserved[s].size();
    std::vector<NodeId> head_block(ln, kNoNode);
    for (std::size_t b = 0; b < idx.num_blocks; ++b) {
      head_block[idx.head[b]] = static_cast<NodeId>(b);
    }
    for (std::size_t l = 0; l < ln; ++l) {
      if (preserved[s][l]) continue;
      const NodeId b = idx.vertex_block[l] != kNoNode ? idx.vertex_block[l]
                                                      : head_block[l];
      if (b != kNoNode) out->bcc_node[l * k + s] = beta[s] + b;
    }
  }

  // A non-preserved vertex sits in <= 1 local and therefore <= 1 global
  // block — never an articulation; a preserved one is one exactly when
  // its terminal node separates the skeleton.
  out->is_articulation.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (preserved[v % k][v / k]) {
      out->is_articulation[v] =
          out->skeleton.is_articulation[out->bcc_node[v]];
    }
  }
  bcc = std::move(out);
  bcc_ready.store(bcc.get(), std::memory_order_release);
  return *bcc;
}

const EpochVector& ShardedView::epochs() const { return state_->epochs; }
std::uint64_t ShardedView::version() const { return state_->version; }
NodeId ShardedView::num_nodes() const { return state_->num_nodes; }
std::size_t ShardedView::num_edges() const { return state_->num_edges; }
std::size_t ShardedView::num_components() const {
  return state_->num_components;
}
std::size_t ShardedView::num_blocks() const {
  return state_->summary.num_blocks();
}
std::size_t ShardedView::num_bridges() const {
  return state_->summary.num_bridges();
}

const graph::EdgeList& ShardedView::summary_graph() const {
  return state_->summary_graph;
}

NodeId ShardedView::summary_node(NodeId v) const {
  assert(v < state_->num_nodes);
  return state_->hnode[v];
}

bool ShardedView::same_2ecc(NodeId u, NodeId v) const {
  return state_->glabel[u] == state_->glabel[v];
}

NodeId ShardedView::bridges_on_path(NodeId u, NodeId v) const {
  return state_->summary.bridges_on_path(summary_node(u), summary_node(v));
}

NodeId ShardedView::component_size(NodeId u) const {
  const State& s = *state_;
  return s.weight[s.glabel[u]];
}

bool ShardedView::same_bcc(NodeId u, NodeId v) const {
  if (u == v) return true;
  const BccStitch& bcc = state_->ensure_bcc();
  const NodeId nu = bcc.bcc_node[u];
  const NodeId nv = bcc.bcc_node[v];
  if (nu == kNoNode || nv == kNoNode) return false;
  // Same gadget node = same local block; otherwise ask the skeleton.
  return nu == nv || bcc.skeleton.same_bcc(nu, nv);
}

bool ShardedView::is_articulation(NodeId v) const {
  return state_->ensure_bcc().is_articulation[v] != 0;
}

NodeId ShardedView::component_label(NodeId v) const {
  // Shard bridges and boundary edges connect blocks WITHIN a component,
  // so summary components are exactly global components.
  return state_->summary_cc[state_->hnode[v]];
}

const std::vector<std::uint8_t>& ShardedView::articulations() const {
  return state_->ensure_bcc().is_articulation;
}

const engine::Engine& ShardedView::facade() const { return *state_->facade; }

void ShardedView::ensure_bcc() const { state_->ensure_bcc(); }

// ---------------------------------------------------------- ShardedGraph

struct ShardedGraph::Shard {
  // Declaration order IS the teardown contract: the (stopped) Ingestor is
  // destroyed first — its publish hook writes `view` — then the held View,
  // the Session, the graph it serves, and finally the Engine whose
  // contexts ran it all.
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<dynamic::DynamicGraph> graph;
  std::unique_ptr<engine::Session> session;
  mutable std::mutex view_mu;
  engine::View view;  // the serving View: the last successful publish
  std::unique_ptr<ingest::Ingestor> ingestor;

  engine::View current_view() const {
    const std::lock_guard<std::mutex> lock(view_mu);
    return view;
  }
};

ShardedGraph::ShardedGraph(NodeId num_nodes, const ShardedOptions& options)
    : ShardedGraph(num_nodes, graph::EdgeList{num_nodes, {}}, options) {}

ShardedGraph::ShardedGraph(NodeId num_nodes, const graph::EdgeList& initial,
                           const ShardedOptions& options)
    : options_(options),
      router_(num_nodes, options.shards) {
  const std::size_t k = router_.shards();
  // Per-shard engines get a bounded worker slice so K shards don't each
  // spawn a machine-wide pool; the façade engine answers cross-shard
  // batches and must route them exactly like an unsharded Engine would,
  // so it takes the machine defaults (worker count drives the cost
  // model's host-loop-vs-bulk-kernel decision).
  const engine::EngineOptions eopt{
      .device_workers = options_.shard_workers,
      .multicore_workers = options_.shard_workers,
      .policy = {},
      .calibrate = false};
  facade_ = std::make_unique<engine::Engine>(engine::EngineOptions{
      .device_workers = 0, .multicore_workers = 0, .policy = {},
      .calibrate = false});

  // Partition the seed: intra-shard slices in LOCAL ids, boundary edges
  // into the router's set.
  std::vector<graph::EdgeList> parts(k);
  for (std::size_t s = 0; s < k; ++s) {
    parts[s].num_nodes = router_.local_nodes(s);
  }
  for (const graph::Edge& e : initial.edges) {
    if (!graph::edge_valid(e.u, e.v, num_nodes)) {
      ++invalid_dropped_;
      continue;
    }
    if (router_.is_boundary(e.u, e.v)) {
      if (router_.insert_boundary(e.u, e.v)) {
        ++boundary_applied_;
      } else {
        ++boundary_noops_;
      }
    } else {
      parts[router_.shard_of(e.u)].edges.push_back(
          {router_.local_of(e.u), router_.local_of(e.v)});
    }
  }

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<engine::Engine>(eopt);
    shard->graph = std::make_unique<dynamic::DynamicGraph>(
        shard->engine->device(), parts[s]);
    shard->session = std::make_unique<engine::Session>(
        shard->engine->session(*shard->graph));
    // Epoch 0's View first (building it drives the session — the writer
    // thread must not exist yet), then the Ingestor, then the hook that
    // stores each published View. A throwing build reaches the Ingestor,
    // which counts the failure and retries; the previous View keeps
    // serving. No traffic flows until this constructor returns, so the
    // rewiring is race-free.
    shard->view = shard->session->view();
    shard->ingestor = std::make_unique<ingest::Ingestor>(
        *shard->engine, *shard->graph, *shard->session, options_.ingest);
    shard->ingestor->set_publisher(
        [held = shard.get()](engine::Session& session) {
          engine::View fresh = session.view();
          const std::lock_guard<std::mutex> lock(held->view_mu);
          held->view = std::move(fresh);
          return true;
        });
    shards_.push_back(std::move(shard));
  }
}

ShardedGraph::~ShardedGraph() { stop(); }

std::size_t ShardedGraph::submit(const std::vector<ingest::Update>& updates) {
  const std::size_t k = router_.shards();
  std::vector<std::vector<ingest::Update>> per_shard(k);
  std::vector<std::pair<std::uint64_t, bool>> boundary_ops;
  boundary_ops.reserve(updates.size());
  std::size_t accepted = 0;
  std::size_t invalid = 0;
  for (const ingest::Update& up : updates) {
    const NodeId u = up.edge.u;
    const NodeId v = up.edge.v;
    if (!graph::edge_valid(u, v, router_.num_nodes())) {
      ++invalid;
      continue;
    }
    if (router_.is_boundary(u, v)) {
      boundary_ops.push_back({graph::edge_key(u, v),
                              up.kind == ingest::UpdateKind::kInsert});
      ++accepted;
    } else {
      ingest::Update local = up;
      local.edge = {router_.local_of(u), router_.local_of(v)};
      per_shard[router_.shard_of(u)].push_back(local);
    }
  }
  std::size_t applied = 0;
  std::size_t noops = 0;
  if (!boundary_ops.empty()) {
    std::tie(applied, noops) = router_.apply_boundary(boundary_ops);
  }
  for (std::size_t s = 0; s < k; ++s) {
    if (!per_shard[s].empty()) {
      accepted += shards_[s]->ingestor->submit(per_shard[s]);
    }
  }
  if (applied + noops + invalid > 0) {
    std::lock_guard<std::mutex> lock(boundary_ledger_mu_);
    boundary_applied_ += applied;
    boundary_noops_ += noops;
    invalid_dropped_ += invalid;
  }
  return accepted;
}

std::size_t ShardedGraph::insert(const std::vector<graph::Edge>& edges,
                                 std::uint32_t producer) {
  std::vector<ingest::Update> ups;
  ups.reserve(edges.size());
  for (const graph::Edge& e : edges) {
    ups.push_back({e, ingest::UpdateKind::kInsert, producer, 0});
  }
  return submit(ups);
}

std::size_t ShardedGraph::erase(const std::vector<graph::Edge>& edges,
                                std::uint32_t producer) {
  std::vector<ingest::Update> ups;
  ups.reserve(edges.size());
  for (const graph::Edge& e : edges) {
    ups.push_back({e, ingest::UpdateKind::kErase, producer, 0});
  }
  return submit(ups);
}

void ShardedGraph::drain() {
  for (auto& shard : shards_) shard->ingestor->drain();
}

void ShardedGraph::flush() {
  for (auto& shard : shards_) shard->ingestor->flush();
}

void ShardedGraph::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->ingestor->stop();
}

EpochVector ShardedGraph::current_epochs() const {
  EpochVector vec;
  vec.shard_epochs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    vec.shard_epochs.push_back(shard->current_view().epoch());
  }
  vec.boundary_version = router_.boundary_version();
  return vec;
}

ShardedView ShardedGraph::view() { return ShardedView(stitch()); }

std::shared_ptr<const ShardedView::State> ShardedGraph::stitch() {
  const std::size_t k = router_.shards();
  // Pin first, compare second: the epoch vector is read off the very views
  // we hold, so it cannot tear against concurrent publishes.
  std::vector<engine::View> views;
  views.reserve(k);
  EpochVector vec;
  vec.shard_epochs.reserve(k);
  for (const auto& shard : shards_) {
    views.push_back(shard->current_view());
    vec.shard_epochs.push_back(views.back().epoch());
  }
  auto [boundary, boundary_version] = router_.boundary_snapshot();
  vec.boundary_version = boundary_version;

  std::lock_guard<std::mutex> lock(stitch_mu_);
  if (stitched_ != nullptr && stitched_->epochs == vec) {
    ++stitch_hits_;
    return stitched_;
  }
  ++stitch_builds_;

  auto state = std::make_shared<ShardedView::State>();
  state->facade = facade_.get();
  state->epochs = std::move(vec);
  state->version = ++stitch_version_;
  state->shards = k;
  state->num_nodes = router_.num_nodes();
  state->views = std::move(views);
  state->boundary = std::move(boundary);

  // Contract each shard to its 2-ecc blocks: reads of the FROZEN views'
  // 2-ecc indexes, not kernel work.
  std::vector<const dynamic::ConnectivityOracle*> blocks(k);
  state->offsets.assign(k + 1, 0);
  state->labels.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    blocks[s] = &state->views[s].artifact<dynamic::ConnectivityOracle>();
    state->labels[s] = &blocks[s]->block_labels();
    state->offsets[s + 1] =
        state->offsets[s] + static_cast<NodeId>(blocks[s]->num_blocks());
  }

  // Summary graph: each shard's bridge edges block-to-block (an edge is a
  // bridge iff its ends' block labels differ, so no shard materializes its
  // mask), plus every boundary edge mapped through its endpoints' shard
  // labels. Parallel summary edges are deliberately KEPT (EdgeList is a
  // multigraph): two boundary edges landing on the same block pair demote
  // each other to non-bridges, which is exactly the global answer.
  graph::EdgeList summary;
  summary.num_nodes = state->offsets[k];
  std::size_t intra_edges = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const auto edges = state->views[s].edge_span().edges;
    const std::vector<NodeId>& labels = *state->labels[s];
    const NodeId off = state->offsets[s];
    intra_edges += edges.size();
    for (const graph::Edge& e : edges) {
      if (labels[e.u] != labels[e.v]) {
        summary.edges.push_back({off + labels[e.u], off + labels[e.v]});
      }
    }
  }
  for (const graph::Edge& e : *state->boundary) {
    const std::size_t su = router_.shard_of(e.u);
    const std::size_t sv = router_.shard_of(e.v);
    summary.edges.push_back(
        {state->offsets[su] + (*state->labels[su])[router_.local_of(e.u)],
         state->offsets[sv] + (*state->labels[sv])[router_.local_of(e.v)]});
  }
  state->num_edges = intra_edges + state->boundary->size();
  state->summary_graph = std::move(summary);

  if (state->summary_graph.num_nodes > 0) {
    const device::Context& ctx = facade_->device();
    const auto device_lock = ctx.exclusive();
    const graph::EdgeList& g = state->summary_graph;
    bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
    auto lca = bridges::forest_lca(ctx, g, forest);
    const bridges::BridgeMask mask =
        bridges::find_bridges_tarjan_vishkin(ctx, g, forest, lca->tree());
    state->summary =
        dynamic::ConnectivityOracle(ctx, g, forest, std::move(lca), mask);
    state->summary_cc = std::move(forest.component);
    state->num_components = forest.num_components;
  }

  // Weights: a summary block's vertex count is the sum of its shard
  // blocks' vertex counts. O(total shard blocks), not O(n).
  const std::vector<NodeId>& slabels = state->summary.block_labels();
  state->weight.assign(state->summary.num_blocks(), 0);
  for (std::size_t s = 0; s < k; ++s) {
    const NodeId off = state->offsets[s];
    for (std::size_t b = 0; b < blocks[s]->num_blocks(); ++b) {
      state->weight[slabels[off + static_cast<NodeId>(b)]] +=
          blocks[s]->block_sizes()[b];
    }
  }

  // Per-vertex composed tables (one O(n) pass; every later query is flat
  // label reads, the same shape as the unsharded oracle's).
  const auto n = static_cast<std::size_t>(state->num_nodes);
  state->hnode.resize(n);
  state->glabel.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId h = state->offsets[v % k] +
                     (*state->labels[v % k])[v / k];
    state->hnode[v] = h;
    state->glabel[v] = slabels[h];
  }

  stitched_ = std::move(state);
  return stitched_;
}

ShardedStats ShardedGraph::stats() const {
  ShardedStats out;
  const std::size_t k = router_.shards();
  out.shards = k;
  out.per_shard_ingest.reserve(k);
  for (const auto& shard : shards_) {
    const ingest::IngestorStats i = shard->ingestor->stats();

    out.ingest.submitted += i.submitted;
    out.ingest.accepted += i.accepted;
    out.ingest.rejected += i.rejected;
    out.ingest.shed += i.shed;
    out.ingest.cancelled += i.cancelled;
    out.ingest.queue_depth += i.queue_depth;
    out.ingest.max_queue_depth =
        std::max(out.ingest.max_queue_depth, i.max_queue_depth);
    out.ingest.applied += i.applied;
    out.ingest.applied_effective += i.applied_effective;
    out.ingest.batches += i.batches;
    out.ingest.insert_batches += i.insert_batches;
    out.ingest.erase_batches += i.erase_batches;
    out.ingest.max_batch = std::max(out.ingest.max_batch, i.max_batch);
    out.ingest.publishes += i.publishes;
    out.ingest.publish_failures += i.publish_failures;
    out.ingest.graph_epoch = std::max(out.ingest.graph_epoch, i.graph_epoch);
    out.ingest.published_epoch =
        std::max(out.ingest.published_epoch, i.published_epoch);
    out.ingest.lag += i.lag;
    out.ingest.latency_ewma_us =
        std::max(out.ingest.latency_ewma_us, i.latency_ewma_us);

    const std::uint64_t applied_epoch = shard->ingestor->graph_epoch();
    const std::uint64_t serving_epoch = shard->current_view().epoch();
    out.shard_epochs.push_back(serving_epoch);
    out.shard_staleness.push_back(
        saturating_sub(applied_epoch, serving_epoch));
    out.max_staleness =
        std::max(out.max_staleness, out.shard_staleness.back());

    out.per_shard_ingest.push_back(i);
  }
  out.boundary_version = router_.boundary_version();
  out.boundary_edges = router_.boundary_edges();
  {
    std::lock_guard<std::mutex> lock(boundary_ledger_mu_);
    out.boundary_applied = boundary_applied_;
    out.boundary_noops = boundary_noops_;
    out.invalid_dropped = invalid_dropped_;
  }
  {
    std::lock_guard<std::mutex> lock(stitch_mu_);
    out.stitch_builds = stitch_builds_;
    out.stitch_hits = stitch_hits_;
  }
  return out;
}

engine::Engine& ShardedGraph::shard_engine(std::size_t shard) {
  return *shards_[shard]->engine;
}
ingest::Ingestor& ShardedGraph::shard_ingestor(std::size_t shard) {
  return *shards_[shard]->ingestor;
}

// ------------------------------------------------------ ShardedDispatcher

ShardedDispatcher::ShardedDispatcher(ShardedGraph& graph)
    : graph_(graph), worker_([this] { run(); }) {}

ShardedDispatcher::~ShardedDispatcher() { stop(); }

void ShardedDispatcher::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();  // answers + counts under its own locking
    lock.lock();
  }
}

void ShardedDispatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // The worker drains every queued job before exiting: no future is
  // abandoned.
  if (worker_.joinable()) worker_.join();
}

ShardedStats ShardedDispatcher::stats() const {
  ShardedStats out = graph_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  out.dispatch.submitted = submitted_;
  out.dispatch.answered = answered_;
  out.dispatch.cancelled = cancelled_;
  out.dispatch.faulted = faulted_;
  out.dispatch.unsupported = unsupported_;
  out.dispatch.invalid = invalid_;
  return out;
}

}  // namespace emc::shard
