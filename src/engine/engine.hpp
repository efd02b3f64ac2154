// emc::engine — the one Graph/Session façade over the whole library.
//
// Everything below src/engine is a zoo of free functions with inconsistent
// signatures (find_bridges_dfs(Csr), find_bridges_ck(ctx, EdgeList, Csr),
// ConnectivityOracle with its own lifecycle); every bench/example used to
// re-wire that pipeline by hand, and nothing above the oracle reused
// derived artifacts. The engine replaces that with four nouns:
//
//   Engine  — owns the execution contexts (device and multicore; the
//             paper's third machine model, one sequential core, is the
//             calling thread itself — DFS runs on it directly), the default
//             Policy, and aggregate stats. One per process is the intended
//             shape. Stats are atomic: concurrent Views account their work
//             without locks.
//   GraphRef — one non-owning handle over both input kinds: a static
//             graph::EdgeList or a live dynamic::DynamicGraph. Static and
//             dynamic inputs are served by IDENTICAL code paths; the only
//             difference is where the epoch comes from (a DynamicGraph
//             advances it per effective update batch, a static graph is
//             forever at epoch 0).
//   Session — a GraphRef plus one record of the current epoch's artifacts.
//             Requests are typed batches, one family each, declared once in
//             the registry (families.hpp); run() is one template over it.
//             Each request is answered with the existing bulk kernels, a
//             Policy picks the backend per request (explicit override or
//             the calibrated cost model — policy.hpp), and every derived
//             artifact (Csr, spanning forest, bridge mask, 2-ecc index,
//             forest LCA, BCC index) is kept in the epoch's record so
//             repeated and mixed request batches pay only the marginal work.
//   View    — an immutable, refcounted snapshot of ONE epoch's artifacts,
//             acquired with Session::view(): the Session's record itself,
//             shared, plus the View's engine and routing policy. A record a
//             View holds is never written; the Session swaps in a copy
//             before it replaces or clears one of its fields, and an epoch
//             change (replayed or empty) installs a new record whole. A
//             View answers every request type concurrently from any number
//             of threads (snapshot isolation): host-routed query batches
//             are lock-free reads of the frozen index; device-routed bulk
//             kernels serialize on the context's driver lock. The serving
//             shape is one writer thread updating the DynamicGraph and
//             calling refresh()/view() to publish each new epoch, while
//             reader threads keep answering on the Views they hold — an old
//             epoch's record stays alive exactly until the last View
//             pinning it drops (MVCC by refcount; see
//             Session::pinned_epochs()).
//
// The record's 2-ecc artifact IS a dynamic::ConnectivityOracle — not a
// parallel universe: block labels and bridge depths derived from the
// record's own spanning forest, forest LCA and bridge mask. The Session
// owns the one replay rule (replay_partition): when everything the graph
// added since the current record's epoch is one small insert-only suffix
// of the edge log (any number of batches, no erase in between) and the
// current record holds the index, the epoch fence (sync_epoch) derives the
// next record from the current one (replayed_record); otherwise it installs
// an empty record the requests then fill. Lazy requests and publishes both
// pass the fence, so whichever comes first at a new epoch takes the replay.
//
// Disconnected inputs need no special path: every backend accepts any
// graph and runs on the epoch's snapshot as it is. The spanning forest is
// rooted one way, below one virtual node n adjacent to each component
// representative (bridges::virtual_root_tree); the record's forest LCA is
// the epoch's one Euler tour, and TV's detection, the hybrid's marking, the
// 2-ecc index and the BCC index all read its tree(). The artifact order is
// forest -> forest LCA -> bridge mask -> 2-ecc index: the auto policy
// decides from the tree's height, so a mask by TV or the hybrid builds no
// Csr at all. DFS and CK read the epoch's Csr; CK roots its BFS at the
// cached forest's representatives.
//
// Lifetimes: the Engine (whose contexts execute the bulk kernels) must
// outlive its Sessions and their Views. A Session must not outlive its
// graph. A View of a STATIC graph references the user's EdgeList and must
// not outlive it either; a View of a DYNAMIC graph co-owns its epoch's
// prefix of the edge log and survives both the graph moving on and the
// graph being destroyed. A static EdgeList must not be mutated while a
// Session is bound to it (the epoch key cannot see such edits).
//
// Threading contract: a Session (and a DynamicGraph) is driven by ONE
// writer thread at a time; Views are the concurrent surface and may be
// copied, queried, and dropped from any thread. Session builds and View
// device-batches share the execution contexts safely through
// device::Context::exclusive().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bcc/bcc.hpp"
#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "device/primitives.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/oracle.hpp"
#include "engine/families.hpp"
#include "engine/policy.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::engine {

class Engine;
class Session;
class View;
struct EpochArtifacts;  // one epoch's artifacts (engine.cpp)

// ------------------------------------------------------------ EpochCell

/// Once-per-epoch build cell for the artifacts no publish needs (the BCC
/// index, the Csr): the first request that reads one builds it. Each
/// epoch's record holds one cell per such artifact — a new record starts
/// with fresh cells, never a mutation of the old ones — and the Session and
/// every View of the epoch share the record, so whichever side builds
/// first, everyone reads the same immutable value.
///
/// Lock order: device exclusive lock FIRST, then the cell mutex —
/// get_or_build assumes the caller already holds the driver lock (builds
/// run bulk kernels), and peek() takes only the cell mutex.
template <typename T>
class EpochCell {
 public:
  /// Returns the value, running build() (returning a T) on first call.
  /// Exception-safe: a fault mid-build (failpoints, allocation) leaves the
  /// cell empty and the next caller retries.
  template <typename Build>
  std::shared_ptr<const T> get_or_build(Build&& build) {
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr) value_ = std::make_shared<const T>(build());
    return value_;
  }

  /// The value if already built, else nullptr. Never builds.
  std::shared_ptr<const T> peek() const {
    std::lock_guard<std::mutex> lock(mu_);
    return value_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> value_;
};

// ------------------------------------------------------------- GraphRef

/// Non-owning handle over either graph kind. Constructed implicitly, so
/// engine.session(my_edge_list) and engine.session(my_dynamic_graph) both
/// read naturally.
class GraphRef {
 public:
  /* implicit */ GraphRef(const graph::EdgeList& graph) : static_(&graph) {}
  /* implicit */ GraphRef(const dynamic::DynamicGraph& graph)
      : dynamic_(&graph) {}
  // Non-owning: binding a temporary (eng.session(make_graph())) would
  // dangle the moment the full expression ends — make it a compile error.
  GraphRef(const graph::EdgeList&&) = delete;
  GraphRef(const dynamic::DynamicGraph&&) = delete;

  bool is_dynamic() const { return dynamic_ != nullptr; }
  NodeId num_nodes() const {
    return dynamic_ != nullptr ? dynamic_->num_nodes() : static_->num_nodes;
  }
  std::size_t num_edges() const {
    return dynamic_ != nullptr ? dynamic_->num_edges() : static_->num_edges();
  }
  /// The artifact-cache key: a static graph is immutable (epoch 0 forever),
  /// a dynamic graph advances per effective update batch.
  std::uint64_t epoch() const {
    return dynamic_ != nullptr ? dynamic_->epoch() : 0;
  }
  const graph::EdgeList* static_graph() const { return static_; }
  const dynamic::DynamicGraph* dynamic_graph() const { return dynamic_; }

 private:
  const graph::EdgeList* static_ = nullptr;
  const dynamic::DynamicGraph* dynamic_ = nullptr;
};

// -------------------------------------------------------------- Engine

/// Coherent snapshot of an engine's aggregate counters, taken by
/// Engine::stats().
struct EngineStats {
  std::size_t sessions = 0;
  std::size_t requests = 0;
  /// Artifact-cache outcomes: builds ran kernels, hits were free.
  std::size_t artifact_builds = 0;
  std::size_t artifact_hits = 0;
  /// Bridge-mask computations per backend, kFixedBackends order.
  std::array<std::size_t, kNumBackends> backend_runs{};
  /// Query batches answered by one device kernel vs a host loop.
  std::size_t device_query_batches = 0;
  std::size_t host_query_batches = 0;
  /// Device-routed batches re-routed to the host loop because the driver
  /// lock was busy (Policy::host_fallback_when_busy).
  std::size_t host_fallbacks = 0;
  /// Views acquired via Session::view().
  std::size_t views = 0;
  /// Epoch records the sessions' fences derived by the delta replay vs
  /// installed empty for the full per-artifact pipeline (see
  /// Session::publish_replays()).
  std::size_t publish_replays = 0;
  std::size_t publish_rebuilds = 0;
};

struct EngineOptions {
  /// Workers for the device context (0 = EMC_WORKERS / hardware width).
  unsigned device_workers = 0;
  /// Workers for the multicore context (0 = half the device width, >= 2 —
  /// the paper's mid-tier baseline).
  unsigned multicore_workers = 0;
  /// Default policy for sessions; per-request overrides win.
  Policy policy{};
  /// Run policy.calibrate(*this) at construction: replaces the committed
  /// hand-fitted CostModel constants (1-core container numbers) with ones
  /// fitted to this machine by a ~120ms startup microbenchmark.
  bool calibrate = false;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Binds a session to a graph. The engine and the graph must outlive it.
  Session session(GraphRef graph);

  const device::Context& device() const { return device_; }
  const device::Context& multicore() const { return multicore_; }

  const Policy& default_policy() const { return options_.policy; }

  /// The live atomic counter sink behind stats(). Mutable through a const
  /// Engine so concurrent Views account their work without locks; it is an
  /// implementation surface for the engine/serve layers — consumers should
  /// read the plain stats() snapshot instead.
  struct Counters {
    std::atomic<std::size_t> sessions{0};
    std::atomic<std::size_t> requests{0};
    std::atomic<std::size_t> artifact_builds{0};
    std::atomic<std::size_t> artifact_hits{0};
    std::array<std::atomic<std::size_t>, kNumBackends> backend_runs{};
    std::atomic<std::size_t> device_query_batches{0};
    std::atomic<std::size_t> host_query_batches{0};
    std::atomic<std::size_t> host_fallbacks{0};
    std::atomic<std::size_t> views{0};
    std::atomic<std::size_t> publish_replays{0};
    std::atomic<std::size_t> publish_rebuilds{0};
  };
  Counters& counters() const { return counters_; }

  /// Plain snapshot of counters() (each counter read atomically).
  EngineStats stats() const;

  /// Kernel launches issued on the device context so far (the currency the
  /// cache-reuse tests pin).
  std::uint64_t device_launches() const { return device_.launch_count(); }

 private:
  friend class Session;
  EngineOptions options_;
  device::Context device_;
  device::Context multicore_;
  mutable Counters counters_;
};

// ------------------------------------------------------- batch routing

/// Machine-only inputs (workers, launch overhead) — all the batch-size
/// routing decision reads.
PlanInputs machine_inputs(const Engine& engine);

/// The one host/device routing rule for query batches (Figure 6): a batch
/// of `size` runs as ONE bulk kernel when Policy::use_device_batch says it
/// pays the launch, as a host loop otherwise. Returns a lock owning the
/// device driver when the batch should take the device route; an unowned
/// lock means the host loop — including a device-routed batch that found
/// the driver busy under Policy::host_fallback_when_busy. Counts the route
/// in the engine's stats. The host route needs no lock at all: artifacts
/// are immutable while the caller holds them.
std::unique_lock<std::recursive_mutex> route_batch(const Engine& engine,
                                                   const Policy& policy,
                                                   std::size_t size);

/// answers[q] = at(items[q]), as one device::transform or a host loop per
/// route_batch. Shared by every per-element family, sharded or not.
template <typename Items, typename At>
auto answer_each(const Engine& engine, const Policy& policy,
                 const Items& items, const At& at) {
  std::vector<std::decay_t<decltype(at(items[0]))>> answers(items.size());
  const auto one = [&](std::size_t q) { return at(items[q]); };
  if (const auto lock = route_batch(engine, policy, items.size());
      lock.owns_lock()) {
    device::transform(engine.device(), items.size(), answers.data(), one);
  } else {
    for (std::size_t q = 0; q < items.size(); ++q) answers[q] = one(q);
  }
  return answers;
}

/// The single answer path behind Session::run and View::run: a whole-graph
/// family reads its artifact, a batch family routes per route_batch.
template <Request Req>
Answer<Req> answer(const Engine& engine, const Policy& policy,
                   const typename Family<Req>::Artifact& artifact,
                   const Req& request) {
  using F = Family<Req>;
  if constexpr (!Coalesced<Req>) {
    return F::whole(artifact);
  } else if constexpr (requires { &F::one; }) {
    return answer_each(engine, policy, request.*F::payload,
                       [&](const auto& q) { return F::one(artifact, q); });
  } else {
    const auto lock =
        route_batch(engine, policy, (request.*F::payload).size());
    return lock.owns_lock() ? F::device(engine.device(), artifact, request)
                            : F::host(artifact, request);
  }
}

// ---------------------------------------------------------------- View

/// An immutable snapshot of one epoch's artifacts — the concurrent request
/// surface. Copyable (copies share the refcounted state); a default-
/// constructed View is empty and must not be queried. run() is safe to
/// call from any number of threads simultaneously; answers are
/// always computed against the acquisition epoch, no matter how far the
/// graph has advanced since. The policy captured at acquisition decides
/// host-loop vs bulk-device routing for query batches.
class View {
 public:
  View() = default;
  explicit operator bool() const { return state_ != nullptr; }

  std::uint64_t epoch() const;
  NodeId num_nodes() const;
  std::size_t num_edges() const;
  std::size_t num_components() const;
  /// Backend that produced this snapshot's bridge mask.
  Backend mask_backend() const;
  /// The routing policy captured at acquisition (see with_policy()).
  const Policy& policy() const;

  /// The pinned snapshot itself, in mask order: for a dynamic graph, the
  /// epoch's prefix of the edge log, co-owned by the View; for a static
  /// graph, the user's EdgeList. What the library reads.
  graph::EdgeSpan edge_span() const;
  /// The same edges as an owned EdgeList. A static graph's is the user's;
  /// a dynamic graph's is copied out of the log by the first caller, once
  /// per epoch (shared like csr()), for callers that need a container.
  const graph::EdgeList& edges() const;
  /// The epoch's Csr (edge ids index edge_span()), building it on first call
  /// like bcc_index(): no publish pays for it, and the first reader builds
  /// it once for the session and every View of the epoch.
  const graph::Csr& csr() const;
  const bridges::SpanningForest& forest() const;

  /// Any registered family, mirroring Session::run. The Bridges answer
  /// references the view's frozen mask (valid while any copy of the View
  /// lives); request.phases is ignored — nothing runs at answer time.
  template <Request Req>
  Answer<Req> run(const Req& request) const {
    engine().counters().requests.fetch_add(1, std::memory_order_relaxed);
    return answer(engine(), policy(),
                  artifact<typename Family<Req>::Artifact>(), request);
  }

  /// The epoch's vertex-biconnectivity artifact, building it on first call
  /// (the build serializes on the device driver lock; afterwards the index
  /// is immutable and lock-free to read). The cell is the epoch record's,
  /// so the first builder — session or any View — pays for everyone.
  /// Composite indexes (shard::ShardedView's skeleton stitch) read the
  /// per-shard tables through this.
  std::shared_ptr<const bcc::BccIndex> bcc_index() const;

  /// The pinned artifact of type A — one of the artifacts a family reads
  /// (bridges::BridgeMask, dynamic::ConnectivityOracle, lca::InlabelLca,
  /// bcc::BccIndex, graph::Csr, bridges::SpanningForest; the BCC index and
  /// the Csr build on first call). Composite indexes read shard tables
  /// through it.
  template <typename A>
  const A& artifact() const;

  /// A copy of this View answering under a different routing policy (e.g.
  /// host_fallback_when_busy for degraded serving). Cheap: the copy shares
  /// the epoch's record; only the captured Policy differs.
  View with_policy(const Policy& policy) const;

 private:
  friend class Session;
  struct State;
  explicit View(std::shared_ptr<const State> state) : state_(std::move(state)) {}
  const Engine& engine() const;
  const EpochArtifacts& record() const;
  std::shared_ptr<const State> state_;
};

// ------------------------------------------------------------- Session

class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // --- typed request batches, any registered family (the second form
  //     overrides the engine's default policy for this request only).
  //     The artifact is built (or hit) under the device driver lock and
  //     released; answering then routes host/device per policy.
  //
  // run(Bridges) returns a reference into the epoch's record: it stays
  // valid until the next request that recomputes the mask (an epoch
  // change, drop_results/drop_artifacts, or a forced backend different
  // from the one that produced it). Copy the mask to keep it across such
  // calls — or hold a View, whose record is frozen.
  template <Request Req>
  Answer<Req> run(const Req& request) {
    return run(request, engine_->default_policy());
  }
  template <Request Req>
  Answer<Req> run(const Req& request, const Policy& policy) {
    engine_->counters_.requests.fetch_add(1, std::memory_order_relaxed);
    const auto& built = locked_artifact<typename Family<Req>::Artifact>(
        policy, phases_of(request));
    return answer(*engine_, policy, built, request);
  }

  // --- snapshot serving
  //
  // view() materializes every published artifact for the current epoch
  // (where run() builds lazily per request type; the Csr and BCC index are
  // lazy either way) and returns the epoch-pinned snapshot;
  // refresh() does the same without acquiring a View — the writer-side
  // "publish artifacts on the side" step, making the next view() cheap.
  // Acquiring a View freezes the record it shares; the next epoch gets a
  // record of its own, so held Views keep answering at their epoch.
  View view();
  View view(const Policy& policy);
  std::uint64_t refresh();
  std::uint64_t refresh(const Policy& policy);
  /// Number of distinct epochs still pinned by live Views of this session
  /// (the current one included). An epoch's artifacts retire when its last
  /// View drops — this is the observable for that.
  std::size_t pinned_epochs() const;

  /// The decision a Bridges request would take, without running it: chosen
  /// backend plus the model's per-backend predictions. Builds its input,
  /// the forest LCA (whose tree's height the model reads), if missing —
  /// never the Csr.
  Plan plan(const Bridges& request);
  Plan plan(const Bridges& request, const Policy& policy);

  // --- artifacts and instance statistics
  const graph::Csr& csr();
  /// The current record's 2-ecc index, or an empty one before the first
  /// 2-ecc step. Reading it runs nothing: it may lag the graph until the
  /// next 2-ecc request or publish. The reference names one record's index:
  /// fetch it again after any request or publish. Queries go through run().
  const dynamic::ConnectivityOracle& two_ecc_index() const;
  std::size_t num_components();

  NodeId num_nodes() const { return graph_.num_nodes(); }
  std::size_t num_edges() const { return graph_.num_edges(); }
  std::uint64_t epoch() const { return graph_.epoch(); }
  /// The backend that served the most recent bridge-mask computation
  /// (after kAuto resolution); kAuto if none ran yet this epoch.
  Backend mask_backend() const;

  /// How the epoch fence reached each of this session's records: derived
  /// from the previous record by replaying the edges added since (it held
  /// the 2-ecc index and the one replay rule, replay_partition, held), vs
  /// installed empty for the full per-artifact pipeline. A request or
  /// publish that found its epoch's record already current counts as
  /// neither.
  std::uint64_t publish_replays() const { return publish_replays_; }
  std::uint64_t publish_rebuilds() const { return publish_rebuilds_; }

  /// Drops every cached artifact (benchmark / memory-pressure hook). The
  /// next request rebuilds from scratch. Live Views are unaffected: they
  /// co-own what they pinned.
  void drop_artifacts();

  /// Drops only the ANSWER artifacts (bridge mask, 2-ecc index, forest
  /// LCA, BCC index), keeping the input-preparation ones (Csr, spanning
  /// forest). The benchmark hook for timing the per-request algorithm cost
  /// the way the paper's figures do — input prep outside the timer,
  /// algorithm inside. The BCC index, an auto mask and a TV or hybrid mask
  /// read the forest LCA's tree, so they rebuild the forest LCA first after
  /// this; fill it (e.g. an LcaBatch run) outside the timer to time their
  /// marginal cost alone.
  void drop_results();

 private:
  friend class Engine;
  Session(Engine& engine, GraphRef graph);

  /// Epoch fence: every request and publish passes through here first. A
  /// changed epoch installs the replayed record when replay_partition()
  /// holds, else an empty one, and counts which (publish_replays /
  /// publish_rebuilds). A replay that throws installs nothing, so the
  /// retry replays again.
  void sync_epoch();
  /// Swaps in a copy of the current record before one of its filled fields
  /// is replaced or cleared: a View may hold the current one.
  void copy_record();
  const graph::Csr& csr_artifact();
  const bridges::SpanningForest& forest();
  /// The mask artifact under `policy` (the heart of the Bridges request).
  /// Auto, TV and the hybrid fill the forest LCA first and read its tree.
  const bridges::BridgeMask& mask_artifact(const Policy& policy,
                                           util::PhaseTimer* phases);
  /// The 2-ecc index artifact, built from the record's forest, forest LCA
  /// and the mask `policy` picks (a forced backend recomputes a cached mask
  /// from another one, as a forced Bridges request does). Fills the forest
  /// LCA before the mask.
  const dynamic::ConnectivityOracle& oracle_artifact(const Policy& policy);
  /// The input of every replay: the edges the graph added since the current
  /// record's epoch (a suffix of its edge log), split by the record's
  /// forest component labels. Intra-component edges can only merge 2-ecc
  /// blocks; cross-component edges each become a bridge linking two trees.
  struct Replay {
    std::span<const graph::Edge> inserted;
    std::vector<std::size_t> intra;  // indexes into inserted
    std::vector<std::size_t> cross;  // indexes into inserted
    /// Loser label -> final winner label of the components the cross edges
    /// join. The min label wins, so relabeling yields exactly what a fresh
    /// CC labeling of the new snapshot assigns (component[rep] == rep).
    std::unordered_map<NodeId, NodeId> merged;
  };
  /// The one replay rule: the current record holds the 2-ecc index, the
  /// edge log covers its epoch (no erase since), and the whole suffix since
  /// then passes ConnectivityOracle::incremental_applies — however many
  /// batches it spans. Returns the suffix split by the record's forest
  /// labels (the one delta classifier), or nullopt when the rule fails or
  /// the suffix closes a cycle across components. Host work only; mutates
  /// nothing.
  std::optional<Replay> replay_partition() const;
  /// The one function that builds a replayed record: the current epoch's
  /// record derived from the current record (which it only reads) and
  /// `replay` — forest and forest LCA (shared when no edge links trees),
  /// bridge mask and 2-ecc index (ConnectivityOracle::insert). The snapshot
  /// is the edge log's prefix, so nothing is copied from it; the Csr and
  /// BCC cells start empty.
  std::shared_ptr<EpochArtifacts> replayed_record(const Replay& replay);
  const lca::InlabelLca& forest_lca_artifact();
  /// The BCC index artifact (expects the device driver lock held).
  std::shared_ptr<const bcc::BccIndex> bcc_artifact();
  /// The run() artifact fetch: builds (or hits) the artifact of type A
  /// under the device driver lock and releases it. `phases` reaches the
  /// bridge-mask build only.
  template <typename A>
  const A& locked_artifact(const Policy& policy, util::PhaseTimer* phases);
  /// Materializes every artifact for the current epoch under `policy`
  /// (expects the caller to hold the device driver lock).
  void ensure_all_artifacts(const Policy& policy);
  /// ensure_all_artifacts + share the record with a new View's state.
  std::shared_ptr<const View::State> make_state(const Policy& policy);
  /// The model's inputs: machine parameters, n, m and the forest LCA
  /// tree's height (fills the forest LCA).
  PlanInputs plan_inputs();
  bool track(bool built);  // stats helper: count a build or a hit

  Engine* engine_;
  GraphRef graph_;
  /// The current epoch's record (null before the first request and after
  /// drop_artifacts), shared with every View acquired at it.
  std::shared_ptr<EpochArtifacts> record_;
  std::uint64_t publish_replays_ = 0;
  std::uint64_t publish_rebuilds_ = 0;
  /// Weak registry of every State this session published, for
  /// pinned_epochs(); expired entries are pruned opportunistically.
  std::vector<std::weak_ptr<const View::State>> published_;
};

}  // namespace emc::engine
