// The correctness gate, run after load stops and flush() returns: a fixed
// sample of every family in the mix goes through the Dispatcher on the
// final epoch and is compared with sequential references over the final
// snapshot; the snapshot itself must equal the edge set the schedule
// implies, and the Dispatcher and Ingestor ledgers must balance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "load.hpp"
#include "support/reference.hpp"
#include "workloads.hpp"

namespace e2e {

struct GateResult {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> problems;  // one line each, printed

  void fail(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
};

/// LCA by parent walk on the View's own spanning forest, each component
/// rooted at its representative (component[r] == r) — the rooting the
/// engine's LcaBatch answers on, checked without its Euler-tour index.
class ForestWalk {
 public:
  ForestWalk(const emc::graph::EdgeList& g, const emc::bridges::SpanningForest& f)
      : comp_(f.component) {
    const auto n = static_cast<std::size_t>(g.num_nodes);
    std::vector<std::size_t> offset(n + 1, 0);
    for (const emc::EdgeId e : f.tree_edges) {
      ++offset[static_cast<std::size_t>(g.edges[e].u) + 1];
      ++offset[static_cast<std::size_t>(g.edges[e].v) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
    std::vector<NodeId> adj(offset[n]);
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (const emc::EdgeId e : f.tree_edges) {
      adj[fill[g.edges[e].u]++] = g.edges[e].v;
      adj[fill[g.edges[e].v]++] = g.edges[e].u;
    }
    parent_.assign(n, emc::kNoNode);
    depth_.assign(n, 0);
    std::vector<NodeId> queue;
    for (std::size_t r = 0; r < n; ++r) {
      if (comp_[r] != static_cast<NodeId>(r)) continue;
      queue.assign(1, static_cast<NodeId>(r));
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        for (std::size_t i = offset[u]; i < offset[u + 1]; ++i) {
          const NodeId w = adj[i];
          if (w == parent_[u] || w == static_cast<NodeId>(r)) continue;
          parent_[w] = u;
          depth_[w] = depth_[u] + 1;
          queue.push_back(w);
        }
      }
    }
  }

  NodeId lca(NodeId u, NodeId v) const {
    if (comp_[u] != comp_[v]) return emc::kNoNode;
    while (depth_[u] > depth_[v]) u = parent_[u];
    while (depth_[v] > depth_[u]) v = parent_[v];
    while (u != v) {
      u = parent_[u];
      v = parent_[v];
    }
    return u;
  }

 private:
  const std::vector<NodeId>& comp_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> depth_;
};

inline GateResult run_gate(Service& svc, const Inputs& in, const PassResult& pass) {
  GateResult g;
  const emc::engine::View view = svc.dispatcher->current_view();
  const std::uint64_t final_epoch = svc.ingestor->graph_epoch();
  if (view.epoch() != final_epoch) {
    g.fail("serving epoch " + std::to_string(view.epoch()) +
           " != final graph epoch " + std::to_string(final_epoch));
    ++g.mismatches;
  }

  // The final snapshot is exactly the edge set the schedule implies.
  ++g.checked;
  if (canonical_keys(view.edges()) != in.final_keys) {
    g.fail("final snapshot differs from initial - erased + inserted");
    ++g.mismatches;
  }

  // Ledgers balance and nothing is left in flight.
  const emc::ingest::IngestorStats is = svc.ingestor->stats();
  const emc::serve::DispatcherStats ds = svc.dispatcher->stats();
  const auto ledger = [&](bool ok, const char* what) {
    ++g.checked;
    if (!ok) {
      g.fail(std::string("ledger: ") + what);
      ++g.mismatches;
    }
  };
  ledger(is.submitted == is.accepted + is.rejected + is.cancelled,
         "ingest submitted != accepted + rejected + cancelled");
  ledger(is.accepted == is.applied + is.shed, "ingest accepted != applied + shed");
  ledger(is.lag == 0, "ingest lag nonzero after flush");
  ledger(pass.accepted == in.updates.size(), "not every update was accepted");
  ledger(pass.unresolved == 0, "a request future never resolved");
  ledger(ds.submitted == ds.answered + ds.shed + ds.rejected + ds.expired +
                             ds.cancelled + ds.faulted + ds.unsupported,
         "dispatcher submitted != sum of outcomes");

  // The request sample, through the Dispatcher, against the references.
  std::vector<AnyFuture> futures;
  futures.reserve(in.gate.size());
  for (const Query& q : in.gate) futures.push_back(submit(*svc.dispatcher, q));
  std::vector<Outcome> out;
  out.reserve(futures.size());
  for (AnyFuture& f : futures) out.push_back(take(f));

  const emc::graph::EdgeList& snap = view.edges();
  const emc::device::Context seq = emc::device::Context::sequential();
  const emc::test_support::ReferenceOracle ref(seq, snap);
  const ForestWalk walk(snap, view.forest());
  const bool has_bcc = std::any_of(in.gate.begin(), in.gate.end(),
                                   [](const Query& q) { return q.family == kSameBcc; });
  std::optional<emc::test_support::ReferenceBcc> ref_bcc;
  if (has_bcc) ref_bcc.emplace(snap);

  std::vector<std::size_t> members;  // CcMembership sample indexes
  for (std::size_t i = 0; i < in.gate.size(); ++i) {
    const Query& q = in.gate[i];
    const Outcome& o = out[i];
    ++g.checked;
    if (o.status != emc::serve::Status::kOk || o.epoch != final_epoch) {
      g.fail(std::string(family_name(q.family)) + " reply not kOk at the final epoch");
      ++g.mismatches;
      continue;
    }
    std::int64_t want = 0;
    switch (q.family) {
      case kSame2Ecc: want = ref.comp[q.u] == ref.comp[q.v]; break;
      case kBridgesOnPath: want = ref.bridges_on_path(q.u, q.v); break;
      case kLca: want = walk.lca(q.u, q.v); break;
      case kComponentSize: want = ref.comp_size[q.u]; break;
      case kSameBcc: want = ref_bcc->same_bcc(q.u, q.v); break;
      default: members.push_back(i); continue;
    }
    if (o.value != want) {
      g.fail(std::string(family_name(q.family)) + "(" + std::to_string(q.u) +
             "," + std::to_string(q.v) + ") = " + std::to_string(o.value) +
             ", reference " + std::to_string(want));
      ++g.mismatches;
    }
  }
  // Component labels are representatives, so compare partitions: two
  // sampled nodes share a label iff the reference puts them in one
  // component.
  for (std::size_t a = 0; a < members.size(); ++a) {
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const Query& qa = in.gate[members[a]];
      const Query& qb = in.gate[members[b]];
      const bool same = out[members[a]].value == out[members[b]].value;
      if (same != (ref.cc[qa.u] == ref.cc[qb.u])) {
        g.fail("cc_membership partition differs at (" + std::to_string(qa.u) +
               "," + std::to_string(qb.u) + ")");
        ++g.mismatches;
      }
    }
  }
  return g;
}

}  // namespace e2e
