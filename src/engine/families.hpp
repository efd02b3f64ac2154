// emc::engine — the request-family registry.
//
// A request family is a plain struct naming a question plus its batch
// payload. Every serving surface — Session::run, View::run,
// serve::Dispatcher::submit, shard::ShardedView::run and
// shard::ShardedDispatcher::submit — is ONE template over this registry,
// so each family is declared exactly once, here: the request struct, its
// entry in `Families`, and a Family<Req> specialisation stating
//
//   Answer    what Session::run / View::run return;
//   Artifact  the epoch artifact the answer reads: bridge mask, 2-ecc
//             oracle, forest LCA, BCC index, CSR or spanning forest;
//   the body  a BATCH family (one with a `payload`) declares
//             `one(artifact, element)`, run as ONE bulk kernel or a host
//             loop by Policy::use_device_batch (Figure 6) — or explicit
//             `host` / `device` bodies when elements share work; a
//             WHOLE-GRAPH family declares `whole(artifact)`;
//   serve     a batch family's Dispatcher lane coalesces and dedups on
//             `payload`; a whole-graph lane answers once per round and
//             hands every waiter `broadcast(answer)`;
//   shard     `sharded(view[, element])`, the composition over
//             shard::ShardedView's global scalar queries — or no
//             `sharded` at all, and the sharded façade replies
//             Status::kUnsupported.
//
// Adding a family is one request struct, one specialisation and one entry
// in `Families`, plus its kernel; every surface, lane and test that folds
// over `Families` picks it up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bcc/bcc.hpp"
#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "dynamic/oracle.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::engine {

using NodePair = std::pair<NodeId, NodeId>;

// ------------------------------------------------------------- requests

/// Per-edge bridge verdict for the whole graph, EdgeList order. The answer
/// is cached per epoch: a second run on an unchanged epoch is free — and
/// `phases` is then left untouched (nothing ran, nothing to time); call
/// drop_results() first when timing the computation itself. Views ignore
/// `phases` entirely (their mask is prebuilt).
struct Bridges {
  util::PhaseTimer* phases = nullptr;  // optional per-phase breakdown
};

/// 2-edge-connected components of the whole graph.
struct TwoEcc {};

/// For each pair: do two edge-disjoint paths connect them?
struct Same2Ecc {
  std::vector<NodePair> pairs;
};

/// For each pair: number of bridges on the connecting path (kNoNode if in
/// different components).
struct BridgesOnPath {
  std::vector<NodePair> pairs;
};

/// For each node: size of its 2-edge-connected component.
struct ComponentSize {
  std::vector<NodeId> nodes;
};

/// For each pair: lowest common ancestor on the session's cached rooted
/// spanning forest (each component rooted at its representative; kNoNode
/// for pairs in different components). The forest and its inlabel index
/// are artifacts — built once per epoch via the Euler tour technique.
struct LcaBatch {
  std::vector<NodePair> pairs;
};

/// Whole-graph articulation-point mask: per node, 1 iff removing the node
/// increases the component count. Served from the epoch's cached BCC index
/// (built by the epoch's first reader).
struct Articulations {};

/// For each pair: does some biconnected component (block) contain both
/// endpoints? Equivalently, are they connected by two vertex-disjoint
/// paths — or adjacent, or equal. The vertex analogue of Same2Ecc.
struct SameBcc {
  std::vector<NodePair> pairs;
};

/// For each (source, target) pair: target's BFS level from source, kNoNode
/// when unreachable. Pairs sharing a source share ONE traversal (the batch
/// is grouped by distinct source), so K same-source queries cost one BFS.
struct BfsLevels {
  std::vector<NodePair> pairs;
};

/// For each node: its connected-component label — the spanning forest's
/// flat representative, so two nodes are connected iff labels match.
/// Labels are representatives, not compacted; compare, don't index.
struct CcMembership {
  std::vector<NodeId> nodes;
};

/// The registry's family list, in declaration order.
template <typename... Reqs>
struct FamilyList {
  template <template <typename> class PerFamily>
  using Tuple = std::tuple<PerFamily<Reqs>...>;
};
using Families =
    FamilyList<Bridges, TwoEcc, Same2Ecc, BridgesOnPath, ComponentSize,
               LcaBatch, Articulations, SameBcc, BfsLevels, CcMembership>;

// ------------------------------------------------------------ answer types

/// Answer view for TwoEcc: compact per-node block ids served straight from
/// the cached 2-ecc index. From Session::run it is valid until the
/// session's next refresh/drop; from View::run it is valid as long as that
/// View (or any copy) lives.
struct TwoEccView {
  const std::vector<NodeId>* labels = nullptr;  // block id per node
  /// Vertex count per block id (indexable by (*labels)[v]) — the weight a
  /// composite index needs when its nodes are CONTRACTED blocks rather
  /// than vertices.
  const std::vector<NodeId>* sizes = nullptr;
  std::size_t num_blocks = 0;
  std::size_t num_bridges = 0;
};

/// Value-type TwoEcc answer for the serving layers (a TwoEccView points
/// into a live index — a future outliving the View needs a copy).
struct TwoEccSummary {
  std::size_t num_blocks = 0;
  std::size_t num_bridges = 0;

  friend bool operator==(const TwoEccSummary&,
                         const TwoEccSummary&) = default;
};

// ------------------------------------------------------------- registry

template <typename Req>
struct Family;  // one specialisation per family, below

template <>
struct Family<Bridges> {
  using Answer = const bridges::BridgeMask&;
  using Artifact = bridges::BridgeMask;
  static Answer whole(const Artifact& mask) { return mask; }
  /// Each serve reply owns a COPY of the mask.
  static bridges::BridgeMask broadcast(const bridges::BridgeMask& mask) {
    return mask;
  }
  /// The global bridge COUNT: a cross-shard mask has no single edge order
  /// to index, so the façade serves the scalar the stitch proves.
  template <typename Sharded>
  static std::size_t sharded(const Sharded& view) {
    return view.num_bridges();
  }
};

template <>
struct Family<TwoEcc> {
  using Answer = TwoEccView;
  using Artifact = dynamic::ConnectivityOracle;
  static Answer whole(const Artifact& oracle) {
    return {&oracle.block_labels(), &oracle.block_sizes(),
            oracle.num_blocks(), oracle.num_bridges()};
  }
  static TwoEccSummary broadcast(const TwoEccView& blocks) {
    return {blocks.num_blocks, blocks.num_bridges};
  }
  template <typename Sharded>
  static TwoEccSummary sharded(const Sharded& view) {
    return {view.num_blocks(), view.num_bridges()};
  }
};

template <>
struct Family<Same2Ecc> {
  using Answer = std::vector<std::uint8_t>;
  using Artifact = dynamic::ConnectivityOracle;
  static constexpr auto payload = &Same2Ecc::pairs;
  static std::uint8_t one(const Artifact& oracle, const NodePair& q) {
    return oracle.same_2ecc(q.first, q.second) ? 1 : 0;
  }
  template <typename Sharded>
  static std::uint8_t sharded(const Sharded& view, const NodePair& q) {
    return view.same_2ecc(q.first, q.second) ? 1 : 0;
  }
};

template <>
struct Family<BridgesOnPath> {
  using Answer = std::vector<NodeId>;
  using Artifact = dynamic::ConnectivityOracle;
  static constexpr auto payload = &BridgesOnPath::pairs;
  static NodeId one(const Artifact& oracle, const NodePair& q) {
    return oracle.bridges_on_path(q.first, q.second);
  }
  template <typename Sharded>
  static NodeId sharded(const Sharded& view, const NodePair& q) {
    return view.bridges_on_path(q.first, q.second);
  }
};

template <>
struct Family<ComponentSize> {
  using Answer = std::vector<NodeId>;
  using Artifact = dynamic::ConnectivityOracle;
  static constexpr auto payload = &ComponentSize::nodes;
  static NodeId one(const Artifact& oracle, NodeId v) {
    return oracle.component_size(v);
  }
  template <typename Sharded>
  static NodeId sharded(const Sharded& view, NodeId v) {
    return view.component_size(v);
  }
};

/// Not served sharded: the forest LCA is specific to ONE rooted spanning
/// forest, and the façade holds per-shard forests, not a global one.
template <>
struct Family<LcaBatch> {
  using Answer = std::vector<NodeId>;
  using Artifact = lca::InlabelLca;
  static constexpr auto payload = &LcaBatch::pairs;
  /// The forest is rooted below one virtual node
  /// (bridges::virtual_root_tree); meeting there means "different
  /// components".
  static NodeId one(const Artifact& lca, const NodePair& q) {
    const NodeId meet = lca.query(q.first, q.second);
    return meet == lca.root() ? kNoNode : meet;
  }
};

template <>
struct Family<Articulations> {
  using Answer = std::vector<std::uint8_t>;
  using Artifact = bcc::BccIndex;
  static Answer whole(const Artifact& index) { return index.is_articulation; }
  static Answer broadcast(Answer mask) { return mask; }
  template <typename Sharded>
  static Answer sharded(const Sharded& view) {
    return view.articulations();
  }
};

template <>
struct Family<SameBcc> {
  using Answer = std::vector<std::uint8_t>;
  using Artifact = bcc::BccIndex;
  static constexpr auto payload = &SameBcc::pairs;
  static std::uint8_t one(const Artifact& index, const NodePair& q) {
    return index.same_bcc(q.first, q.second) ? 1 : 0;
  }
  template <typename Sharded>
  static std::uint8_t sharded(const Sharded& view, const NodePair& q) {
    return view.same_bcc(q.first, q.second) ? 1 : 0;
  }
};

/// Not served sharded: exact cross-shard BFS needs iterative boundary-edge
/// relaxation between per-shard traversals, a different cost class from
/// every composed answer (see shard.hpp).
template <>
struct Family<BfsLevels> {
  using Answer = std::vector<NodeId>;
  using Artifact = graph::Csr;
  static constexpr auto payload = &BfsLevels::pairs;
  // Both routes group the batch by distinct source — one traversal each
  // (the launch-count pin: K same-source queries cost ONE device BFS) —
  // and are O(n + m) per source; the routing rule separates the
  // level-synchronous device kernels from a cache-friendly sequential
  // frontier walk, exactly the Figure 6 trade-off.
  static Answer device(const device::Context& ctx, const Artifact& csr,
                       const BfsLevels& request);
  static Answer host(const Artifact& csr, const BfsLevels& request);
};

template <>
struct Family<CcMembership> {
  using Answer = std::vector<NodeId>;
  using Artifact = bridges::SpanningForest;
  static constexpr auto payload = &CcMembership::nodes;
  static NodeId one(const Artifact& forest, NodeId v) {
    return forest.component[v];
  }
  /// Summary-node representatives: equal iff same global component.
  template <typename Sharded>
  static NodeId sharded(const Sharded& view, NodeId v) {
    return view.component_label(v);
  }
};

// ------------------------------------------------------------ derived traits

template <typename Req>
concept Request = requires { typename Family<Req>::Artifact; };

/// A batch family: its serve lane coalesces on `payload`.
template <typename Req>
concept Coalesced = Request<Req> && requires { Family<Req>::payload; };

template <Request Req>
using Answer = typename Family<Req>::Answer;

/// The value a serve::Reply carries for `Req`: the Answer itself for a
/// batch family, `broadcast(answer)` for a whole-graph one.
template <typename Req>
struct ServedOf {
  using type = Answer<Req>;
};
template <typename Req>
  requires(!Coalesced<Req>)
struct ServedOf<Req> {
  using type = decltype(Family<Req>::broadcast(std::declval<Answer<Req>>()));
};
template <Request Req>
using Served = typename ServedOf<Req>::type;

/// Bridges carries an optional phase timer; no other family does.
template <Request Req>
util::PhaseTimer* phases_of(const Req& request) {
  if constexpr (requires { request.phases; }) {
    return request.phases;
  } else {
    return nullptr;
  }
}

/// True iff every vertex id the request's payload names lies in [0, n).
/// NodeId is signed, so negative ids fail too. Whole-graph requests name
/// no vertex.
template <Request Req>
bool ids_in_range(const Req& request, NodeId n) {
  if constexpr (Coalesced<Req>) {
    const auto ok = [n](NodeId v) { return v >= 0 && v < n; };
    for (const auto& item : request.*Family<Req>::payload) {
      if constexpr (std::is_same_v<std::decay_t<decltype(item)>, NodeId>) {
        if (!ok(item)) return false;
      } else if (!ok(item.first) || !ok(item.second)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace emc::engine

namespace emc::serve {
using engine::TwoEccSummary;  // the serving layers' TwoEcc reply value
}
