// emc::shard — K-shard partitioned graphs behind one routing façade.
//
// One DynamicGraph is one memory arena driven by one writer thread: that
// caps sustained write throughput at a single Ingestor and caps graph size
// at one arena. This module is the other half of the scaling story:
//
//   ShardedGraph — hash-partitions the vertex set into K shards
//     (shard_of(v) = v % K), each owning a full vertical slice of the
//     serving stack: its own engine::Engine (own execution contexts, so
//     shards never serialize on one driver lock), DynamicGraph (LOCAL
//     vertex ids — shard s holds v/K for every v with v % K == s),
//     engine::Session, ingest::Ingestor (K writer threads applying in
//     parallel) and the shard's serving engine::View, which the Ingestor's
//     publish hook replaces after each successful epoch build. A failed
//     build keeps the previous View serving and the Ingestor retries it,
//     so bounded staleness stays PER SHARD — one shard's failing publish
//     leaves the others serving fresh epochs (shard_staleness in stats).
//
//   Router — classifies every edge by its endpoints' shards. An
//     INTRA-shard edge is remapped to local ids and queued on the owning
//     shard's Ingestor; a CROSS-shard (boundary) edge never enters any
//     DynamicGraph — it lands in the router's dedicated boundary set (a
//     canonical-key hash set under one mutex, versioned per effective
//     change). The modulo rule makes both directions O(1) arithmetic:
//     local(v) = v / K, global(s, l) = l * K + s — no translation tables.
//
//   ShardedView — the cross-shard consistency snapshot: one epoch-pinned
//     engine::View per shard plus one boundary-set snapshot, identified by
//     the EPOCH VECTOR (K per-shard epochs, boundary version). Cross-shard
//     connectivity is answered by STITCHING: contract each shard to its
//     2-ecc block graph (the pinned Views' 2-ecc labels; a bridge is an
//     edge whose ends' labels differ), then build a small top-level
//     SUMMARY graph whose nodes are shard blocks and whose edges are (a)
//     each shard's bridge edges and (b) the boundary edges mapped through the owning shards' block
//     labels — kept as a MULTIGRAPH: two boundary edges landing on the
//     same block pair demote each other to non-bridges, exactly like
//     parallel edges anywhere else in the library. A
//     dynamic::ConnectivityOracle built over the summary's spanning forest
//     and its forest LCA, its bridges read off that LCA's tree by Tarjan's
//     low/high criterion with no mask (one forest, one tour per stitch;
//     the summary is naturally disconnected; its forest is rooted below
//     one virtual node like every other disconnected input's) then
//     composes shard-local answers into global ones:
//
//       same_2ecc_G(u, v)       = summary.same_2ecc(h(u), h(v))
//       bridges_on_path_G(u, v) = summary.bridges_on_path(h(u), h(v))
//       component_size_G(v)     = Σ vertex weights of v's summary block
//       bridges(G)              = shard bridges surviving in the summary
//                                 + boundary edges that are summary bridges
//                               = summary.num_bridges()
//
//     where h(v) = block_offset[shard_of(v)] + shard_block_label(v).
//     Contracting a 2-edge-connected subgraph never changes any remaining
//     edge's bridgeness, so the summary's verdicts are exact — pinned by
//     the differential fuzz in tests/test_shard.cpp against an unsharded
//     Session and the sequential ReferenceOracle.
//
//     VERTEX biconnectivity stitches the same way but contraction is not
//     enough — collapsing a local block to one node would invent
//     articulation points. Instead each shard block is replaced by a
//     2-connected GADGET on its terminals (local articulation points and
//     boundary endpoints in the block) plus one fresh interior node: a
//     cycle through all of them (an edge for one terminal, an isolated
//     node for none). Within a block any two terminals are connected by
//     two internally-disjoint paths, and so are any two gadget nodes —
//     and every non-terminal vertex of the block is an interior vertex on
//     no cross-shard separator, so the skeleton (all gadgets + boundary
//     edges on the terminal nodes) has EXACTLY the global block structure
//     restricted to terminals. Global answers compose through bcc_node(v)
//     = v's terminal node when preserved, else its unique block's gadget
//     node; the skeleton's BccIndex answers same-block queries, and a
//     preserved vertex is a global articulation iff its terminal node is
//     one in the skeleton (a non-preserved vertex sits in <= 1 local =
//     <= 1 global block, never an articulation). Component membership
//     composes the summary's connected-component labels through h(v) —
//     labels are REPRESENTATIVES (summary node ids), equal iff same global
//     component; compare, don't index.
//
//     Each family's composition over these global scalar queries is
//     declared with the family in the engine registry
//     (engine/families.hpp, `sharded`); this module names no family.
//     BFS levels are NOT served sharded: exact cross-shard BFS needs
//     iterative boundary-edge relaxation between per-shard traversals (a
//     distributed delta-stepping round trip per level), which is a
//     different cost class from every other composed answer here. Nor is
//     the forest LCA: its answer is specific to one rooted spanning
//     forest, and the façade holds per-shard forests. The façade resolves
//     such families with an honest Status::kUnsupported instead of a
//     silently-wrong per-shard answer; the relaxation loop is a recorded
//     ROADMAP follow-up.
//
//   ShardedDispatcher — the serving façade: one worker thread that
//     answers every composable family against the freshest ShardedView,
//     each request mapped and answered atomically against ONE pinned view
//     (no torn-epoch answers). stats() adds the façade's request ledger to
//     the per-shard Ingestor ledgers as one coherent snapshot.
//
// Stitch caching: ShardedGraph::view() memoizes the summary per epoch
// vector — while no shard publishes and the boundary set is unchanged,
// repeated view() calls are one comparison (stitch_hits vs stitch_builds in
// ShardedStats). Any single shard advancing invalidates only the cache, not
// the per-shard artifacts: the rebuild re-reads per-shard 2-ecc labels and
// edges from ALREADY-FROZEN views plus the summary build, whose size is the number of shard blocks + bridges + boundary
// edges, not n.
//
// Lifetimes/threading: submit()/insert()/erase() are safe from any producer
// thread; view()/stats() from any thread. A ShardedView (and any reply
// computed from it) must not outlive its ShardedGraph — summary bulk
// kernels run on the façade engine's context. stop() stops every shard's
// Ingestor (each lands its final publish); the destructor calls it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/oracle.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "util/types.hpp"

namespace emc::shard {

// --------------------------------------------------------------- Router

/// Pure partition arithmetic plus the boundary set. Owned by ShardedGraph;
/// exposed const so tests can pin the routing rule directly.
class Router {
 public:
  Router(NodeId num_nodes, std::size_t shards);

  std::size_t shards() const { return shards_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// The partition rule: shard_of(v) = v % K. Modulo (not range) keeps both
  /// id directions O(1) and spreads any contiguous id range evenly.
  std::size_t shard_of(NodeId v) const {
    return static_cast<std::size_t>(v) % shards_;
  }
  NodeId local_of(NodeId v) const {
    return v / static_cast<NodeId>(shards_);
  }
  NodeId global_of(std::size_t shard, NodeId local) const {
    return local * static_cast<NodeId>(shards_) +
           static_cast<NodeId>(shard);
  }
  /// Vertices owned by `shard` — zero is legal (num_nodes < K leaves the
  /// high shards empty).
  NodeId local_nodes(std::size_t shard) const {
    const auto n = static_cast<std::uint64_t>(num_nodes_);
    if (n <= shard) return 0;
    return static_cast<NodeId>((n - 1 - shard) / shards_ + 1);
  }
  bool is_boundary(NodeId u, NodeId v) const {
    return shard_of(u) != shard_of(v);
  }

  /// Boundary-set mutations (thread-safe; canonical edge_key dedup).
  /// Return true iff the set changed — the boundary VERSION advances iff
  /// that is the case, mirroring DynamicGraph's effective-epoch rule.
  bool insert_boundary(NodeId u, NodeId v);
  bool erase_boundary(NodeId u, NodeId v);
  /// A pre-routed batch of (canonical edge key, is_insert) ops applied in
  /// order under ONE lock acquisition — per-edge locking dominated the
  /// write path at high cross-shard fractions. Returns {applied, noops};
  /// the version advances once per effective change, as above.
  std::pair<std::size_t, std::size_t> apply_boundary(
      const std::vector<std::pair<std::uint64_t, bool>>& ops);

  /// The boundary edges as a canonical (key-sorted) list plus the version
  /// it belongs to. Cached per version: repeated snapshots of an unchanged
  /// set share one immutable vector.
  std::pair<std::shared_ptr<const std::vector<graph::Edge>>, std::uint64_t>
  boundary_snapshot() const;

  std::uint64_t boundary_version() const;
  std::size_t boundary_edges() const;

 private:
  NodeId num_nodes_;
  std::size_t shards_;
  mutable std::mutex mu_;
  std::unordered_set<std::uint64_t> boundary_;  // canonical edge keys
  std::uint64_t version_ = 0;
  mutable std::shared_ptr<const std::vector<graph::Edge>> snapshot_;
  mutable std::uint64_t snapshot_version_ = ~std::uint64_t{0};
};

// -------------------------------------------------------------- options

struct ShardedOptions {
  /// Number of shards K (0 acts as 1).
  std::size_t shards = 4;
  /// Device workers per shard engine. Shards own separate engines so
  /// their writers never contend on one driver lock. The façade engine
  /// (summary build + cross-shard batch queries) always takes the machine
  /// defaults instead, so batch routing matches an unsharded Engine.
  unsigned shard_workers = 2;
  /// Per-shard ingest pipeline knobs (queue bound, admission, batching,
  /// publish pacing). Applied identically to every shard.
  ingest::IngestorOptions ingest{};
};

// --------------------------------------------------------- epoch vector

/// The cross-shard consistency key: one published epoch per shard plus the
/// boundary-set version. Two ShardedViews with equal vectors answer every
/// query identically.
struct EpochVector {
  std::vector<std::uint64_t> shard_epochs;
  std::uint64_t boundary_version = 0;

  friend bool operator==(const EpochVector&, const EpochVector&) = default;
};

// ---------------------------------------------------------------- stats

/// One coherent cross-shard snapshot. Epoch gauges that are not
/// meaningfully summable (graph_epoch, published_epoch, staleness, latency
/// EWMA) aggregate as the MAXIMUM over shards — "how far behind is the
/// worst shard" — and every subtraction routes through
/// util::saturating_sub so a torn read can never wrap a gauge.
struct ShardedStats {
  std::size_t shards = 0;

  /// The ShardedDispatcher's request ledger (all zero from
  /// ShardedGraph::stats()): submitted, answered, cancelled, faulted,
  /// unsupported and invalid. It obeys the Dispatcher identity
  ///   submitted == answered + shed + rejected + expired + cancelled
  ///                + faulted + unsupported + invalid
  /// once quiesced.
  serve::DispatcherStats dispatch;
  /// Per-shard Ingestor ledgers summed (max for max_batch /
  /// max_queue_depth / epoch gauges / latency EWMA).
  ingest::IngestorStats ingest;

  /// The unaggregated per-shard ledgers (isolation tests read these: a
  /// publish failpoint on one shard must not fail the others' publishes).
  std::vector<ingest::IngestorStats> per_shard_ingest;

  /// Serving (published) epoch per shard, and how many epochs each shard's
  /// serving view lags its applied graph (saturating).
  std::vector<std::uint64_t> shard_epochs;
  std::vector<std::uint64_t> shard_staleness;
  std::uint64_t max_staleness = 0;

  // Boundary-set ledger (cross-shard edges bypass the ingest pipelines).
  std::uint64_t boundary_version = 0;
  std::size_t boundary_edges = 0;
  std::size_t boundary_applied = 0;  // effective inserts + erases
  std::size_t boundary_noops = 0;    // duplicate insert / absent erase
  /// Updates dropped at the façade for invalid endpoints (self-loop or out
  /// of range) — neither shards nor the boundary set ever see them.
  std::size_t invalid_dropped = 0;

  // Summary-stitch cache outcomes (view() calls).
  std::size_t stitch_builds = 0;
  std::size_t stitch_hits = 0;
};

// ----------------------------------------------------------- ShardedView

class ShardedView;

/// A family the façade can compose: its registry entry declares `sharded`.
template <typename Req>
concept Composable = engine::Request<Req> && requires {
  &engine::Family<Req>::template sharded<ShardedView>;
};

/// An immutable cross-shard snapshot: K epoch-pinned engine::Views, the
/// boundary edges, and the stitched summary index, all at one EpochVector.
/// Copyable (copies share the refcounted state); answers every query
/// against the pinned vector no matter how far the shards advance. Safe
/// from any number of threads; must not outlive the ShardedGraph.
class ShardedView {
 public:
  ShardedView() = default;
  explicit operator bool() const { return state_ != nullptr; }

  const EpochVector& epochs() const;
  /// Monotone stitch generation (bumps per summary rebuild) — the scalar
  /// "epoch" stamped into ShardedDispatcher replies.
  std::uint64_t version() const;

  NodeId num_nodes() const;
  std::size_t num_edges() const;      // intra-shard + boundary
  std::size_t num_components() const;
  std::size_t num_blocks() const;     // global 2-ecc blocks
  std::size_t num_bridges() const;    // global bridges

  /// Scalar queries on GLOBAL vertex ids (host, O(1)).
  bool same_2ecc(NodeId u, NodeId v) const;
  NodeId bridges_on_path(NodeId u, NodeId v) const;
  NodeId component_size(NodeId u) const;
  /// Global connected-component label: the summary-node representative
  /// of v's block — equal iff same component (compare, don't index; it is
  /// not a vertex id).
  NodeId component_label(NodeId v) const;
  /// Vertex biconnectivity on global ids (see the gadget-skeleton note in
  /// the header comment). First call per snapshot builds the skeleton
  /// lazily — per-shard BCC indexes plus one small skeleton BccIndex —
  /// so views that never see a BCC family pay nothing.
  bool same_bcc(NodeId u, NodeId v) const;
  bool is_articulation(NodeId v) const;
  /// Global articulation-point mask over all n vertices.
  const std::vector<std::uint8_t>& articulations() const;

  /// Any composable family, mirroring engine::View::run — pairs/nodes are
  /// global ids, answered by the family's `sharded` composition over the
  /// scalar queries above. Batches route exactly like the unsharded
  /// engine (engine::route_batch on the façade engine): one bulk device
  /// transform or a plain host loop.
  template <Composable Req>
  auto run(const Req& request) const {
    using Family = engine::Family<Req>;
    // The vertex-biconnectivity stitch builds here, on the calling thread,
    // never inside a bulk kernel's workers.
    if constexpr (std::is_same_v<typename Family::Artifact, bcc::BccIndex>) {
      ensure_bcc();
    }
    if constexpr (engine::Coalesced<Req>) {
      return engine::answer_each(
          facade(), engine::Policy{}, request.*Family::payload,
          [this](const auto& q) { return Family::sharded(*this, q); });
    } else {
      return Family::sharded(*this);
    }
  }

  /// The stitched block graph (benches size their rows by it).
  const graph::EdgeList& summary_graph() const;

 private:
  friend class ShardedGraph;
  struct State;
  explicit ShardedView(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}
  /// h(v): the summary node of v's shard-local 2-ecc block.
  NodeId summary_node(NodeId v) const;
  /// The façade engine: summary kernels and batch routing.
  const engine::Engine& facade() const;
  void ensure_bcc() const;

  std::shared_ptr<const State> state_;
};

// ---------------------------------------------------------- ShardedGraph

class ShardedGraph {
 public:
  explicit ShardedGraph(NodeId num_nodes, const ShardedOptions& options = {});
  /// Seeds each shard's epoch 0 with its slice of `initial`; boundary
  /// edges land in the boundary set before any traffic flows (the version
  /// counts each effective seed insert, like any later change).
  ShardedGraph(NodeId num_nodes, const graph::EdgeList& initial,
               const ShardedOptions& options = {});
  ~ShardedGraph();

  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;

  // --- producers (any thread) -------------------------------------
  /// Routes each update: invalid edges dropped, boundary edges applied to
  /// the router's set inline, intra-shard edges remapped to local ids and
  /// queued on the owning shard's Ingestor. Returns updates accepted
  /// (boundary updates count as accepted whether or not effective,
  /// mirroring ring semantics for duplicate inserts).
  std::size_t submit(const std::vector<ingest::Update>& updates);
  std::size_t insert(const std::vector<graph::Edge>& edges,
                     std::uint32_t producer = 0);
  std::size_t erase(const std::vector<graph::Edge>& edges,
                    std::uint32_t producer = 0);

  // --- lifecycle ---------------------------------------------------
  /// Waits until every accepted update is applied or shed on every shard
  /// (publish pacing still applies — shards may serve older epochs after).
  void drain();
  /// drain(), then forces every shard to publish its final epoch.
  void flush();
  /// Quiesces the whole fleet: stops every Ingestor, each landing its final
  /// publish in the shard's held View. Idempotent; the destructor calls it.
  void stop();

  // --- reading -----------------------------------------------------
  /// The freshest consistent snapshot: pins each shard's current serving
  /// View + the boundary set, and builds (or reuses — see stitch_hits) the
  /// summary index for that epoch vector.
  ShardedView view();
  /// The epoch vector view() would pin right now.
  EpochVector current_epochs() const;

  ShardedStats stats() const;

  // --- plumbing ----------------------------------------------------
  std::size_t shards() const { return router_.shards(); }
  NodeId num_nodes() const { return router_.num_nodes(); }
  const Router& router() const { return router_; }
  engine::Engine& shard_engine(std::size_t shard);
  ingest::Ingestor& shard_ingestor(std::size_t shard);

 private:
  friend class ShardedDispatcher;
  struct Shard;

  void seed(const graph::EdgeList& initial);
  std::shared_ptr<const ShardedView::State> stitch();

  ShardedOptions options_;
  Router router_;
  /// unique_ptrs: DynamicGraph and the pipeline stages are non-movable,
  /// and per-Shard declaration order encodes the teardown contract (the
  /// Ingestor, declared last, is destroyed first).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<engine::Engine> facade_;  // summary build + bulk queries

  mutable std::mutex boundary_ledger_mu_;
  std::size_t boundary_applied_ = 0;
  std::size_t boundary_noops_ = 0;
  std::size_t invalid_dropped_ = 0;

  mutable std::mutex stitch_mu_;
  std::shared_ptr<const ShardedView::State> stitched_;
  std::uint64_t stitch_version_ = 0;
  std::size_t stitch_builds_ = 0;
  std::size_t stitch_hits_ = 0;
  bool stopped_ = false;
};

// ------------------------------------------------------ ShardedDispatcher

/// The cross-shard serving front door: submit() enqueues a typed request
/// and returns a future; the worker thread maps and answers it against ONE pinned
/// ShardedView (the freshest at answer time), so no reply mixes epochs.
/// Reply.epoch carries the view's stitch generation (ShardedView::version).
/// stop() drains the queue — every future resolves — then joins; submits
/// after stop() resolve kCancelled. The ShardedGraph must outlive it.
class ShardedDispatcher {
 public:
  explicit ShardedDispatcher(ShardedGraph& graph);
  ~ShardedDispatcher();

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  /// Enqueues a request of any registered family; the worker answers it
  /// with ShardedView::run, and the reply carries that answer. Resolves
  /// IMMEDIATELY, never queued, with Status::kInvalidArgument for a
  /// payload id outside [0, num_nodes), and with Status::kUnsupported
  /// (and an engine::Served<Req> value type) for a family without a
  /// shard composition — see the header comment. Either way the request
  /// enters the ledger.
  template <engine::Request Req>
  auto submit(Req request) {
    if constexpr (!Composable<Req>) {
      return resolve<engine::Served<Req>>(serve::Status::kUnsupported,
                                          unsupported_);
    } else {
      using Value = decltype(std::declval<const ShardedView&>().run(request));
      if (!engine::ids_in_range(request, graph_.num_nodes())) {
        return resolve<Value>(serve::Status::kInvalidArgument, invalid_);
      }
      return enqueue<Value>(
          [request = std::move(request)](const ShardedView& view) {
            return view.run(request);
          });
    }
  }

  void stop();

  /// ShardedGraph::stats() with the façade's own ledger in `dispatch`
  /// (submitted/answered/cancelled/faulted/unsupported/invalid), so the
  /// balance identity covers every request that entered the façade.
  ShardedStats stats() const;

 private:
  template <typename Value, typename Fn>
  std::future<serve::Reply<Value>> enqueue(Fn&& answer);
  /// Counts a request into `outcome` and resolves it without queueing.
  template <typename Value>
  std::future<serve::Reply<Value>> resolve(serve::Status status,
                                           std::size_t& outcome) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++submitted_;
      ++outcome;
    }
    std::promise<serve::Reply<Value>> promise;
    serve::Reply<Value> reply;
    reply.status = status;
    promise.set_value(std::move(reply));
    return promise.get_future();
  }
  void run();

  ShardedGraph& graph_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stopping_ = false;
  std::size_t submitted_ = 0;
  std::size_t answered_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t faulted_ = 0;
  std::size_t unsupported_ = 0;
  std::size_t invalid_ = 0;
  std::thread worker_;
};

template <typename Value, typename Fn>
std::future<serve::Reply<Value>> ShardedDispatcher::enqueue(Fn&& answer) {
  auto promise = std::make_shared<std::promise<serve::Reply<Value>>>();
  std::future<serve::Reply<Value>> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    if (stopping_) {
      ++cancelled_;
      serve::Reply<Value> reply;
      reply.status = serve::Status::kCancelled;
      promise->set_value(std::move(reply));
      return future;
    }
    jobs_.push_back(
        [this, promise, answer = std::forward<Fn>(answer)]() mutable {
          serve::Reply<Value> reply;
          try {
            // One pinned view per request: the map and the answer read the
            // same epoch vector, no matter how the shards move meanwhile.
            const ShardedView view = graph_.view();
            reply.value = answer(view);
            reply.epoch = view.version();
            reply.status = serve::Status::kOk;
            std::lock_guard<std::mutex> counter_lock(mu_);
            ++answered_;
          } catch (...) {
            reply.status = serve::Status::kFaulted;
            std::lock_guard<std::mutex> counter_lock(mu_);
            ++faulted_;
          }
          promise->set_value(std::move(reply));
        });
  }
  cv_.notify_one();
  return future;
}

}  // namespace emc::shard
