#include "engine/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "bridges/bfs.hpp"
#include "bridges/chaitanya_kothapalli.hpp"
#include "bridges/dfs_bridges.hpp"
#include "bridges/hybrid.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "device/primitives.hpp"
#include "gen/graphs.hpp"
#include "util/failpoint.hpp"

namespace emc::engine {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

PlanInputs machine_inputs(const Engine& engine) {
  PlanInputs inputs;
  inputs.device_workers = engine.device().workers();
  inputs.multicore_workers = engine.multicore().workers();
  inputs.launch_overhead = engine.device().launch_overhead();
  return inputs;
}

std::unique_lock<std::recursive_mutex> route_batch(const Engine& engine,
                                                   const Policy& policy,
                                                   std::size_t size) {
  std::unique_lock<std::recursive_mutex> lock;
  if (policy.use_device_batch(size, machine_inputs(engine))) {
    if (!policy.host_fallback_when_busy) {
      lock = engine.device().exclusive();
    } else {
      lock = engine.device().try_exclusive();
      if (!lock.owns_lock()) {
        engine.counters().host_fallbacks.fetch_add(1, kRelaxed);
      }
    }
  }
  (lock.owns_lock() ? engine.counters().device_query_batches
                    : engine.counters().host_query_batches)
      .fetch_add(1, kRelaxed);
  return lock;
}

namespace {

/// BfsLevels pairs grouped by distinct source: query indexes per source.
std::unordered_map<NodeId, std::vector<std::size_t>> by_source(
    const BfsLevels& request) {
  std::unordered_map<NodeId, std::vector<std::size_t>> groups;
  for (std::size_t q = 0; q < request.pairs.size(); ++q) {
    groups[request.pairs[q].first].push_back(q);
  }
  return groups;
}

}  // namespace

Answer<BfsLevels> Family<BfsLevels>::device(const device::Context& ctx,
                                            const graph::Csr& csr,
                                            const BfsLevels& request) {
  std::vector<NodeId> answers(request.pairs.size(), kNoNode);
  for (const auto& [source, queries] : by_source(request)) {
    const bridges::BfsTree tree = bridges::bfs(ctx, csr, {source});
    for (const std::size_t q : queries) {
      answers[q] = tree.level[request.pairs[q].second];
    }
  }
  return answers;
}

Answer<BfsLevels> Family<BfsLevels>::host(const graph::Csr& csr,
                                          const BfsLevels& request) {
  std::vector<NodeId> answers(request.pairs.size(), kNoNode);
  if (request.pairs.empty()) return answers;
  std::vector<NodeId> level(static_cast<std::size_t>(csr.num_nodes));
  std::vector<NodeId> frontier, next;
  for (const auto& [source, queries] : by_source(request)) {
    std::fill(level.begin(), level.end(), kNoNode);
    level[source] = 0;
    frontier.assign(1, source);
    NodeId depth = 0;
    while (!frontier.empty()) {
      ++depth;
      next.clear();
      for (const NodeId v : frontier) {
        for (EdgeId i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
          const NodeId w = csr.neighbors[i];
          if (level[w] == kNoNode) {
            level[w] = depth;
            next.push_back(w);
          }
        }
      }
      frontier.swap(next);
    }
    for (const std::size_t q : queries) {
      answers[q] = level[request.pairs[q].second];
    }
  }
  return answers;
}

// ---------------------------------------------------------------- Engine

Engine::Engine(const EngineOptions& options)
    : options_(options),
      device_(options.device_workers == 0
                  ? device::Context::device()
                  : device::Context(options.device_workers,
                                    device::Context::device_launch_overhead())),
      multicore_(options.multicore_workers == 0
                     ? device::Context(std::max(2u, device_.workers() / 2))
                     : device::Context(options.multicore_workers)) {
  if (options_.calibrate) options_.policy.calibrate(*this);
}

Session Engine::session(GraphRef graph) {
  counters_.sessions.fetch_add(1, kRelaxed);
  return Session(*this, graph);
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.sessions = counters_.sessions.load(kRelaxed);
  s.requests = counters_.requests.load(kRelaxed);
  s.artifact_builds = counters_.artifact_builds.load(kRelaxed);
  s.artifact_hits = counters_.artifact_hits.load(kRelaxed);
  for (std::size_t i = 0; i < kNumBackends; ++i) {
    s.backend_runs[i] = counters_.backend_runs[i].load(kRelaxed);
  }
  s.device_query_batches = counters_.device_query_batches.load(kRelaxed);
  s.host_query_batches = counters_.host_query_batches.load(kRelaxed);
  s.host_fallbacks = counters_.host_fallbacks.load(kRelaxed);
  s.views = counters_.views.load(kRelaxed);
  s.publish_replays = counters_.publish_replays.load(kRelaxed);
  s.publish_rebuilds = counters_.publish_rebuilds.load(kRelaxed);
  return s;
}

// ---------------------------------------------------------- epoch record

/// One epoch's artifacts: the record the Session fills and every View of
/// the epoch shares. The one sharing rule: a record a View holds is never
/// written. The Session fills an empty field in place (view() fills every
/// field a View reads before sharing the record) and swaps in a copy
/// (copy_record) before it replaces or clears a filled one. Copies share
/// the lazy cells.
struct EpochArtifacts {
  std::uint64_t epoch = 0;
  dynamic::EdgeSnapshot snapshot;  // dynamic graphs: co-owns the log prefix
  const graph::EdgeList* static_edges = nullptr;  // static graphs
  std::shared_ptr<const bridges::SpanningForest> forest;
  std::shared_ptr<const bridges::BridgeMask> mask;
  Backend mask_backend = Backend::kAuto;
  std::shared_ptr<const lca::InlabelLca> forest_lca;
  /// The 2-ecc index, derived from forest, forest_lca and mask.
  std::shared_ptr<const dynamic::ConnectivityOracle> oracle;
  /// The lazy cells, built by the first reader and never by a publish.
  std::shared_ptr<EpochCell<graph::Csr>> csr =
      std::make_shared<EpochCell<graph::Csr>>();
  std::shared_ptr<EpochCell<graph::EdgeList>> edge_list =  // dynamic edges()
      std::make_shared<EpochCell<graph::EdgeList>>();
  std::shared_ptr<EpochCell<bcc::BccIndex>> bcc =
      std::make_shared<EpochCell<bcc::BccIndex>>();

  /// The epoch's edges, in mask order.
  graph::EdgeSpan edges() const {
    return static_edges != nullptr ? graph::EdgeSpan(*static_edges)
                                   : snapshot.span();
  }
};

namespace {

/// A record for the graph's current epoch: its edge handle, no artifacts.
std::shared_ptr<EpochArtifacts> fresh_record(GraphRef graph,
                                             const device::Context& ctx) {
  auto record = std::make_shared<EpochArtifacts>();
  record->epoch = graph.epoch();
  if (graph.is_dynamic()) {
    record->snapshot = graph.dynamic_graph()->snapshot(ctx);
  } else {
    record->static_edges = graph.static_graph();
  }
  return record;
}

/// One of the epoch's lazy cells, built by whichever side reads it first:
/// the device driver lock (recursive) first, then the cell mutex.
template <typename T, typename Build>
std::shared_ptr<const T> lazy_artifact(const Engine& engine, EpochCell<T>& cell,
                                       Build&& build) {
  // Fast path: already built and immutable — no device lock needed.
  if (auto value = cell.peek()) {
    engine.counters().artifact_hits.fetch_add(1, kRelaxed);
    return value;
  }
  const auto lock = engine.device().exclusive();
  const bool built = cell.peek() == nullptr;  // re-check under lock
  (built ? engine.counters().artifact_builds : engine.counters().artifact_hits)
      .fetch_add(1, kRelaxed);
  return cell.get_or_build(std::forward<Build>(build));
}

/// The epoch's Csr, from its edge snapshot, so its edge ids index that
/// snapshot (and the epoch's bridge mask). The cell keeps it alive.
std::shared_ptr<const graph::Csr> epoch_csr(const Engine& engine,
                                            const EpochArtifacts& record) {
  return lazy_artifact(engine, *record.csr, [&] {
    util::failpoint::maybe_throw(util::failpoint::kSnapshot);
    return graph::build_csr(engine.device(), record.edges());
  });
}

/// The largest level of a rooted forest's tree (the cost model's height),
/// by one host pass: no kernel launch.
NodeId tree_height(const core::TreeStats& tree) {
  return tree.level.empty()
             ? 0
             : *std::max_element(tree.level.begin(), tree.level.end());
}

/// The cost model's mean marking walk: the tree edges CK's marking climbs
/// from both endpoints of an edge to their LCA, averaged over a strided
/// sample of the edges (tree edges climb none). The step budget caps a
/// pathological sample; a walk that long already rules the hybrid out.
double mean_walk(graph::EdgeSpan g, const core::TreeStats& tree) {
  constexpr std::size_t kSamples = 512;
  constexpr std::size_t kStepBudget = kSamples * 256;
  const std::vector<NodeId>& parent = tree.parent;
  const std::vector<NodeId>& level = tree.level;
  const std::size_t m = g.edges.size();
  const std::size_t stride = std::max<std::size_t>(1, m / kSamples);
  std::size_t steps = 0;
  std::size_t sampled = 0;
  for (std::size_t e = stride / 2; e < m && steps < kStepBudget;
       e += stride, ++sampled) {
    NodeId u = g.edges[e].u;
    NodeId v = g.edges[e].v;
    if (parent[u] == v || parent[v] == u) continue;
    while (u != v && steps < kStepBudget) {
      if (level[u] < level[v]) std::swap(u, v);
      u = parent[u];
      ++steps;
    }
  }
  return sampled > 0 ? static_cast<double>(steps) / sampled : 0.0;
}

/// The epoch's BCC index, on the tree the record's forest LCA already
/// toured (forest and forest LCA must be filled). The cell keeps it alive.
std::shared_ptr<const bcc::BccIndex> epoch_bcc(const Engine& engine,
                                               const EpochArtifacts& record) {
  return lazy_artifact(engine, *record.bcc, [&] {
    return bcc::BccIndex::build(engine.device(), record.edges(),
                                *record.forest, record.forest_lca->tree());
  });
}

}  // namespace

// --------------------------------------------------------- session plumbing

Session::Session(Engine& engine, GraphRef graph)
    : engine_(&engine), graph_(graph) {}

Backend Session::mask_backend() const {
  return record_ ? record_->mask_backend : Backend::kAuto;
}

void Session::sync_epoch() {
  if (record_ && record_->epoch == graph_.epoch()) return;
  // Views pinning the outgoing epoch keep its record; the session moves on
  // to the next one.
  if (const std::optional<Replay> replay = replay_partition()) {
    record_ = replayed_record(*replay);
    ++publish_replays_;
    engine_->counters_.publish_replays.fetch_add(1, kRelaxed);
  } else {
    record_ = fresh_record(graph_, engine_->device_);
    ++publish_rebuilds_;
    engine_->counters_.publish_rebuilds.fetch_add(1, kRelaxed);
  }
}

const dynamic::ConnectivityOracle& Session::two_ecc_index() const {
  static const dynamic::ConnectivityOracle empty;
  return record_ && record_->oracle ? *record_->oracle : empty;
}

void Session::copy_record() {
  record_ = std::make_shared<EpochArtifacts>(*record_);
}

void Session::drop_artifacts() { record_.reset(); }

void Session::drop_results() {
  if (!record_) return;
  copy_record();
  record_->mask.reset();
  record_->mask_backend = Backend::kAuto;
  record_->oracle.reset();
  record_->forest_lca.reset();
  record_->bcc = std::make_shared<EpochCell<bcc::BccIndex>>();
}

bool Session::track(bool built) {
  (built ? engine_->counters_.artifact_builds : engine_->counters_.artifact_hits)
      .fetch_add(1, kRelaxed);
  return built;
}

const graph::Csr& Session::csr_artifact() {
  sync_epoch();
  return *epoch_csr(*engine_, *record_);
}

const graph::Csr& Session::csr() {
  const auto lock = engine_->device_.exclusive();
  return csr_artifact();
}

const bridges::SpanningForest& Session::forest() {
  sync_epoch();
  track(!record_->forest);
  if (!record_->forest) {
    record_->forest = std::make_shared<const bridges::SpanningForest>(
        bridges::cc_spanning_forest(engine_->device_, record_->edges()));
  }
  return *record_->forest;
}

std::size_t Session::num_components() {
  const auto lock = engine_->device_.exclusive();
  return forest().num_components;
}

PlanInputs Session::plan_inputs() {
  PlanInputs inputs = machine_inputs(*engine_);
  inputs.n = graph_.num_nodes();
  inputs.m = graph_.num_edges();
  const core::TreeStats& tree = forest_lca_artifact().tree();
  inputs.height = tree_height(tree);
  inputs.walk = mean_walk(record_->edges(), tree);
  return inputs;
}

// -------------------------------------------------------------- artifacts

const bridges::BridgeMask& Session::mask_artifact(const Policy& policy,
                                                  util::PhaseTimer* phases) {
  sync_epoch();
  // A cached mask is reusable unless the request FORCES a backend other
  // than the one that computed it (forcing is the point in benches/tests).
  if (record_->mask && (policy.backend == Backend::kAuto ||
                        policy.backend == record_->mask_backend)) {
    track(false);
    return *record_->mask;
  }
  const device::Context& device = engine_->device_;
  const graph::EdgeSpan g = record_->edges();
  const std::size_t m = g.num_edges();
  bridges::BridgeMask mask(m, 0);
  Backend backend = policy.backend;
  if (m == 0) {
    if (backend == Backend::kAuto) backend = Backend::kDfs;
  } else {
    if (backend == Backend::kAuto) backend = policy.choose(plan_inputs());
    // Every backend takes the snapshot as it is, connected or not; TV and
    // the hybrid run on the epoch's one tour, the forest LCA's tree.
    switch (backend) {
      case Backend::kDfs:
        mask = bridges::find_bridges_dfs(csr_artifact());
        break;
      case Backend::kCkMulticore:
      case Backend::kCk:
        mask = bridges::find_bridges_ck(
            backend == Backend::kCk ? device : engine_->multicore_, g,
            csr_artifact(),
            bridges::component_representatives(device, forest()), phases);
        break;
      case Backend::kTv:
        mask = bridges::find_bridges_tarjan_vishkin(
            device, g, forest(), forest_lca_artifact().tree(), phases);
        break;
      case Backend::kHybrid:
        mask = bridges::find_bridges_hybrid(
            device, g, forest(), forest_lca_artifact().tree(), phases);
        break;
      case Backend::kAuto:
        assert(false);
        break;
    }
    // Inside the m > 0 branch: the edgeless early path runs no backend, so
    // it must not count as one.
    engine_->counters_.backend_runs[backend_index(backend)].fetch_add(1,
                                                                      kRelaxed);
  }
  track(true);
  if (record_->mask) copy_record();  // a forced backend replaces the mask
  record_->mask = std::make_shared<const bridges::BridgeMask>(std::move(mask));
  record_->mask_backend = backend;
  return *record_->mask;
}

const dynamic::ConnectivityOracle& Session::oracle_artifact(
    const Policy& policy) {
  sync_epoch();
  if (!track(!record_->oracle)) return *record_->oracle;
  // The forest LCA first, then the mask, which may read its tree (a forced
  // backend may swap in a copy of the record; the copy keeps the LCA).
  forest_lca_artifact();
  const bridges::BridgeMask& mask = mask_artifact(policy, nullptr);
  record_->oracle = std::make_shared<const dynamic::ConnectivityOracle>(
      engine_->device_, record_->edges(), *record_->forest,
      record_->forest_lca, mask);
  return *record_->oracle;
}

std::optional<Session::Replay> Session::replay_partition() const {
  if (!graph_.is_dynamic() || !record_ || !record_->oracle) {
    return std::nullopt;
  }
  const dynamic::DynamicGraph& g = *graph_.dynamic_graph();
  // Everything the graph added since the record's epoch, however many
  // batches that was; nullopt when an erase came in between.
  const auto inserted = g.inserted_since(record_->epoch);
  if (!inserted) return std::nullopt;
  const std::size_t d = inserted->size();
  if (!dynamic::ConnectivityOracle::incremental_applies(d, 0,
                                                        g.num_edges() - d)) {
    return std::nullopt;  // too large to beat a build
  }
  // Split the suffix by the record's forest labels, merging the labels the
  // cross edges join with a host union-find as it goes (the min label wins,
  // as in a fresh CC labeling). A cross edge closing a cycle through
  // components merged earlier in the suffix is neither a bridge nor
  // intra-component on the old snapshot: no replay expresses it.
  const std::vector<NodeId>& labels = record_->forest->component;
  Replay replay{*inserted, {}, {}, {}};
  std::unordered_map<NodeId, NodeId> parent;  // label -> parent label
  const auto find = [&](NodeId c) {
    for (auto it = parent.find(c); it != parent.end(); it = parent.find(c)) {
      c = it->second;
    }
    return c;
  };
  for (std::size_t i = 0; i < d; ++i) {
    const NodeId cu = labels[(*inserted)[i].u];
    const NodeId cv = labels[(*inserted)[i].v];
    if (cu == cv) {
      replay.intra.push_back(i);
      continue;
    }
    const NodeId a = find(cu);
    const NodeId b = find(cv);
    if (a == b) return std::nullopt;
    parent[std::max(a, b)] = std::min(a, b);
    replay.cross.push_back(i);
  }
  for (const auto& entry : parent) {
    replay.merged[entry.first] = find(entry.first);
  }
  return replay;
}

const lca::InlabelLca& Session::forest_lca_artifact() {
  sync_epoch();
  track(!record_->forest_lca);
  if (!record_->forest_lca) {
    record_->forest_lca =
        bridges::forest_lca(engine_->device_, record_->edges(), forest());
  }
  return *record_->forest_lca;
}

// --------------------------------------------------------------- requests

std::shared_ptr<const bcc::BccIndex> Session::bcc_artifact() {
  // The build inputs (forest, then its LCA); counted separately, like every
  // artifact.
  forest_lca_artifact();
  return epoch_bcc(*engine_, *record_);
}

template <typename A>
const A& Session::locked_artifact(const Policy& policy,
                                  util::PhaseTimer* phases) {
  const auto lock = engine_->device_.exclusive();
  if constexpr (std::is_same_v<A, bridges::BridgeMask>) {
    return mask_artifact(policy, phases);
  } else if constexpr (std::is_same_v<A, dynamic::ConnectivityOracle>) {
    return oracle_artifact(policy);
  } else if constexpr (std::is_same_v<A, lca::InlabelLca>) {
    return forest_lca_artifact();
  } else if constexpr (std::is_same_v<A, bcc::BccIndex>) {
    return *bcc_artifact();  // the record's cell keeps the index alive
  } else if constexpr (std::is_same_v<A, graph::Csr>) {
    return csr_artifact();
  } else {
    static_assert(std::is_same_v<A, bridges::SpanningForest>);
    return forest();
  }
}

Plan Session::plan(const Bridges& request) {
  return plan(request, engine_->default_policy());
}

Plan Session::plan(const Bridges&, const Policy& policy) {
  const auto lock = engine_->device_.exclusive();
  Plan result;
  result.inputs = plan_inputs();
  for (std::size_t i = 0; i < kNumBackends; ++i) {
    result.predicted_seconds[i] =
        policy.model.seconds(kFixedBackends[i], result.inputs);
  }
  result.chosen = policy.choose(result.inputs);
  return result;
}

// ------------------------------------------------------------------ views

struct View::State {
  const Engine* engine = nullptr;
  Policy policy;  // captured at acquisition: decides batch routing
  std::shared_ptr<const EpochArtifacts> record;
};

std::shared_ptr<EpochArtifacts> Session::replayed_record(
    const Replay& replay) {
  const EpochArtifacts& prev = *record_;
  const device::Context& ctx = engine_->device_;
  const std::vector<std::size_t>& cross = replay.cross;
  const std::size_t old_m = prev.mask->size();
  const std::size_t d = replay.inserted.size();

  // The snapshot: the previous epoch's edges followed by the log suffix,
  // so every edge id the previous record's artifacts hold still names its
  // edge.
  std::shared_ptr<EpochArtifacts> next = fresh_record(graph_, ctx);
  const graph::EdgeSpan snap = next->edges();
  assert(snap.num_edges() == old_m + d);

  // Spanning forest and its LCA: intra inserts leave both untouched (the
  // endpoints were already connected, so the tree edges still span), and
  // the new record shares the objects. Each cross insert links two trees —
  // append it to a copy and fold the loser labels in with the partition's
  // merge map — and the LCA is rebuilt over the linked forest.
  if (cross.empty()) {
    next->forest = prev.forest;
    next->forest_lca = prev.forest_lca;
  } else {
    auto forest = std::make_shared<bridges::SpanningForest>(*prev.forest);
    std::vector<NodeId>& labels = forest->component;
    device::launch(ctx, labels.size(), [&](std::size_t v) {
      const auto it = replay.merged.find(labels[v]);
      if (it != replay.merged.end()) labels[v] = it->second;
    });
    forest->tree_edges.reserve(forest->tree_edges.size() + cross.size());
    for (const std::size_t i : cross) {
      forest->tree_edges.push_back(static_cast<EdgeId>(old_m + i));
    }
    forest->num_components -= cross.size();
    track(true);  // counted like forest_lca_artifact's build
    next->forest_lca = bridges::forest_lca(ctx, snap, *forest);
    next->forest = std::move(forest);
  }

  // Bridge mask: a copy made at its final length — one allocation, one
  // pass. Appended edges are bridges iff they link trees (an intra insert
  // closes a cycle); the index step then clears the bridges they demote.
  auto mask = std::make_shared<bridges::BridgeMask>();
  mask->reserve(old_m + d);
  mask->assign(prev.mask->begin(), prev.mask->end());
  mask->resize(old_m + d, 0);
  for (const std::size_t i : cross) (*mask)[old_m + i] = 1;
  next->oracle = std::make_shared<const dynamic::ConnectivityOracle>(
      prev.oracle->insert(ctx, snap, *next->forest, replay.inserted,
                          replay.intra, next->forest_lca, *mask));
  next->mask = std::move(mask);
  next->mask_backend = prev.mask_backend;
  // The Csr and BCC cells start empty (no publish builds them): even an
  // intra-component insert can merge blocks or demote an articulation, so
  // the BCC index never survives a replay.
  return next;
}

void Session::ensure_all_artifacts(const Policy& policy) {
  // Failpoint: the publish chokepoint — both refresh() and view() pass
  // through here, and nothing is mutated yet when it fires, so a caller
  // that catches the fault keeps a coherent (stale) record.
  util::failpoint::maybe_throw(util::failpoint::kPublish);
  // Forest and forest LCA first (the auto pick and the TV and hybrid masks
  // read its tree), then the mask, so a forced backend also replaces a
  // replayed record's mask, then the index.
  forest_lca_artifact();
  mask_artifact(policy, nullptr);
  oracle_artifact(policy);
}

std::shared_ptr<const View::State> Session::make_state(const Policy& policy) {
  ensure_all_artifacts(policy);
  auto state =
      std::make_shared<const View::State>(View::State{engine_, policy, record_});
  // From here on the record is frozen (see EpochArtifacts).
  std::erase_if(published_, [](const auto& weak) { return weak.expired(); });
  published_.push_back(state);
  return state;
}

View Session::view() { return view(engine_->default_policy()); }

View Session::view(const Policy& policy) {
  engine_->counters_.views.fetch_add(1, kRelaxed);
  const auto lock = engine_->device_.exclusive();
  return View(make_state(policy));
}

std::uint64_t Session::refresh() { return refresh(engine_->default_policy()); }

std::uint64_t Session::refresh(const Policy& policy) {
  const auto lock = engine_->device_.exclusive();
  ensure_all_artifacts(policy);
  return record_->epoch;
}

std::size_t Session::pinned_epochs() const {
  std::vector<std::uint64_t> epochs;
  for (const auto& weak : published_) {
    if (const auto state = weak.lock()) epochs.push_back(state->record->epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs.size();
}

View View::with_policy(const Policy& policy) const {
  return View(std::make_shared<const State>(
      State{state_->engine, policy, state_->record}));
}

const Engine& View::engine() const { return *state_->engine; }
const EpochArtifacts& View::record() const { return *state_->record; }

std::uint64_t View::epoch() const { return record().epoch; }
NodeId View::num_nodes() const { return edge_span().num_nodes; }
std::size_t View::num_edges() const { return edge_span().num_edges(); }
std::size_t View::num_components() const {
  return record().forest->num_components;
}
Backend View::mask_backend() const { return record().mask_backend; }
const Policy& View::policy() const { return state_->policy; }
graph::EdgeSpan View::edge_span() const { return record().edges(); }

const graph::EdgeList& View::edges() const {
  const EpochArtifacts& record = this->record();
  if (record.static_edges != nullptr) return *record.static_edges;
  // A plain copy, no kernels: the cell mutex alone serializes the export.
  return *record.edge_list->get_or_build([&] {
    const graph::EdgeSpan g = record.edges();
    return graph::EdgeList{g.num_nodes, {g.edges.begin(), g.edges.end()}};
  });
}
const bridges::SpanningForest& View::forest() const { return *record().forest; }

const graph::Csr& View::csr() const { return *epoch_csr(engine(), record()); }

std::shared_ptr<const bcc::BccIndex> View::bcc_index() const {
  return epoch_bcc(engine(), record());
}

template <typename A>
const A& View::artifact() const {
  if constexpr (std::is_same_v<A, bridges::BridgeMask>) {
    return *record().mask;
  } else if constexpr (std::is_same_v<A, dynamic::ConnectivityOracle>) {
    return *record().oracle;
  } else if constexpr (std::is_same_v<A, lca::InlabelLca>) {
    return *record().forest_lca;
  } else if constexpr (std::is_same_v<A, bcc::BccIndex>) {
    return *bcc_index();  // the record's cell keeps the index alive
  } else if constexpr (std::is_same_v<A, graph::Csr>) {
    return csr();
  } else {
    static_assert(std::is_same_v<A, bridges::SpanningForest>);
    return forest();
  }
}

// The artifact kinds a family may read; run<Req>() instantiates the fetch
// through these.
#define EMC_ARTIFACT(A)                                                    \
  template const A& Session::locked_artifact<A>(const Policy&,            \
                                                util::PhaseTimer*);       \
  template const A& View::artifact<A>() const;
EMC_ARTIFACT(bridges::BridgeMask)
EMC_ARTIFACT(dynamic::ConnectivityOracle)
EMC_ARTIFACT(lca::InlabelLca)
EMC_ARTIFACT(bcc::BccIndex)
EMC_ARTIFACT(graph::Csr)
EMC_ARTIFACT(bridges::SpanningForest)
#undef EMC_ARTIFACT

// ------------------------------------------------------------ calibration

namespace {

/// The model's pure-work prediction (launch/sync charges zeroed) and the
/// charges themselves — the charges are exact (launch counts are
/// structural, the overhead is the context's known constant, the pool
/// sync is measured first), so calibration subtracts them from measured
/// time and refits only the work.
double work_seconds(const CostModel& model, Backend backend,
                    const PlanInputs& inputs) {
  CostModel work_only = model;
  work_only.pool_sync_ns = 0.0;
  PlanInputs no_launch = inputs;
  no_launch.launch_overhead = 0.0;
  return work_only.seconds(backend, no_launch);
}

double charge_seconds(const CostModel& model, Backend backend,
                      const PlanInputs& inputs) {
  return model.seconds(backend, inputs) - work_seconds(model, backend, inputs);
}

}  // namespace

void Policy::calibrate(Engine& engine) {
  // Two instances spanning the shapes that separate the backends: a tall
  // road ribbon (long walks; 25k nodes, 45k edges) and a dense shallow
  // kron (6k nodes, 80k edges). At this size each backend's work outweighs
  // its launch charge and costs per element what it does at bench_engine's
  // scale (smaller instances sit in cache and under-price DFS), so
  // best-of-three runs fit to within ~15% run to run, and the whole fit
  // takes ~120ms (4-vCPU VM, 4 workers). Each is rooted outside the
  // timers, as an epoch is before its mask.
  struct Instance {
    graph::EdgeList g;
    bridges::SpanningForest forest;
    std::shared_ptr<const lca::InlabelLca> lca;
    PlanInputs inputs;
  };
  const device::Context& device = engine.device();
  const auto lock = device.exclusive();
  std::array<Instance, 2> instances{
      Instance{graph::largest_component(
                   graph::simplified(gen::road_graph(768, 32, 0.92, 0.02, 71))),
               {},
               {},
               {}},
      Instance{graph::largest_component(
                   graph::simplified(gen::kron_graph(13, 12.0, 72))),
               {},
               {},
               {}}};
  for (Instance& inst : instances) {
    inst.forest = bridges::cc_spanning_forest(device, inst.g);
    inst.lca = bridges::forest_lca(device, inst.g, inst.forest);
    inst.inputs = machine_inputs(engine);
    inst.inputs.n = inst.g.num_nodes;
    inst.inputs.m = inst.g.num_edges();
    inst.inputs.height = tree_height(inst.lca->tree());
    inst.inputs.walk = mean_walk(inst.g, inst.lca->tree());
  }

  // Times what the model prices: DFS and CK build the Csr they read, TV and
  // the hybrid run on the rooted forest.
  const auto measure = [&](Backend backend, const Instance& inst) {
    double best = 1e300;
    for (int run = 0; run < 3; ++run) {
      util::Timer timer;
      switch (backend) {
        case Backend::kDfs:
          bridges::find_bridges_dfs(graph::build_csr(device, inst.g));
          break;
        case Backend::kCkMulticore:
        case Backend::kCk:
          bridges::find_bridges_ck(
              backend == Backend::kCk ? device : engine.multicore(), inst.g,
              graph::build_csr(device, inst.g), {0});
          break;
        case Backend::kTv:
          bridges::find_bridges_tarjan_vishkin(device, inst.g, inst.forest,
                                               inst.lca->tree());
          break;
        case Backend::kHybrid:
          bridges::find_bridges_hybrid(device, inst.g, inst.forest,
                                       inst.lca->tree());
          break;
        case Backend::kAuto:
          break;
      }
      best = std::min(best, timer.seconds());
    }
    return best;
  };

  // The pool barrier first, so the work fits below are net of it: batches
  // of empty launches wide enough to wake every worker, less the modeled
  // launch latency. An implausible reading keeps the hand value.
  if (device.workers() > 1) {
    const std::size_t width = std::size_t{4096} * device.workers();
    double per_launch = 1e300;
    for (int batch = 0; batch < 3; ++batch) {
      util::Timer timer;
      for (int k = 0; k < 8; ++k) {
        device::launch(device, width, [](std::size_t) {});
      }
      per_launch = std::min(per_launch, timer.seconds() / 8);
    }
    const double sync_ns = (per_launch - device.launch_overhead()) * 1e9;
    if (std::isfinite(sync_ns) && sync_ns > model.pool_sync_ns / 20.0 &&
        sync_ns < model.pool_sync_ns * 20.0) {
      model.pool_sync_ns = sync_ns;
    }
  }

  // Measured-over-predicted work ratio per backend (geometric mean across
  // the instances); implausible ratios — noise, or a work term fully
  // hidden under the launch charge — leave the hand constants in place.
  const CostModel hand = model;
  const Instance& ribbon = instances[0];
  const Instance& kron = instances[1];
  const auto fit_ratio = [&](Backend backend,
                             std::initializer_list<const Instance*> fit_on) {
    double log_sum = 0.0;
    int count = 0;
    for (const Instance* inst_ptr : fit_on) {
      const Instance& inst = *inst_ptr;
      const double work = work_seconds(hand, backend, inst.inputs);
      const double net =
          measure(backend, inst) - charge_seconds(hand, backend, inst.inputs);
      if (!(work > 0.0) || !(net > 0.0)) continue;
      const double ratio = net / work;
      // A sanitizer slows DFS's sequential pass ~30x and the parallel
      // backends ~10x (TSan): real ratios, inside the band.
      if (!std::isfinite(ratio) || ratio < 1.0 / 50.0 || ratio > 50.0) continue;
      log_sum += std::log(ratio);
      ++count;
    }
    return count > 0 ? std::exp(log_sum / count) : 1.0;
  };

  // DFS's hand constants fit the road shape, where it competes; on a dense
  // graph the Csr's scatter contends on hubs and costs ~2x more per edge
  // than they say, so fitting DFS to the kron too would overprice it on
  // roads. CK's launch term is structural, and the tall ribbon would cost
  // it one launch per BFS level; both fit on one instance.
  const double r_dfs = fit_ratio(Backend::kDfs, {&ribbon});
  model.dfs_node_ns *= r_dfs;
  model.dfs_edge_ns *= r_dfs;
  const double r_ck = fit_ratio(Backend::kCk, {&kron});
  model.ck_node_ns *= r_ck;
  model.ck_edge_ns *= r_ck;
  const double r_tv = fit_ratio(Backend::kTv, {&ribbon, &kron});
  model.tv_node_ns *= r_tv;
  model.tv_edge_ns *= r_tv;
  const double r_hybrid = fit_ratio(Backend::kHybrid, {&ribbon, &kron});
  model.hybrid_node_ns *= r_hybrid;
  model.hybrid_edge_ns *= r_hybrid;
  // Host/device point-query work scales with scalar host throughput.
  model.query_host_ns *= r_dfs;
  model.query_device_ns *= r_dfs;
}

}  // namespace emc::engine
