// Concurrent union-find — the reusable hook/compress primitive.
//
// The CC algorithm in src/bridges hard-wires its hooking into the edge
// relaxation loop and flattens with uf_flatten; other consumers need the
// whole structure as a standalone primitive: a flat parent array usable
// from inside bulk kernels, with
//
//   find   — pointer jumping with path halving (each probe CASes its
//            grandparent in, so concurrent finds shorten the chains they
//            walk — the "compress" half);
//   unite  — hook the LARGER root under the smaller via CAS on the root
//            slot (the "hook" half). Hooking strictly label-decreasing
//            keeps the structure acyclic under any interleaving and makes
//            the final partition deterministic: every set's root is its
//            minimum id, independent of thread schedule;
//   flatten — one bulk kernel making every parent point at its root, so
//            subsequent reads are plain loads (no more jumping).
//
// This is the Jayanti-Tarjan style lock-free DSU specialized to the
// device simulation: all state lives in a caller-owned NodeId array, so
// kernels capture a raw pointer exactly as they would device memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "device/context.hpp"
#include "device/primitives.hpp"
#include "util/types.hpp"

namespace emc::device {

/// Root of x, halving the path as it walks. Safe to call concurrently with
/// other find/unite calls on the same array.
inline NodeId uf_find(NodeId* parent, NodeId x) {
  while (true) {
    std::atomic_ref<NodeId> slot(parent[x]);
    NodeId p = slot.load(std::memory_order_acquire);
    if (p == x) return x;
    const NodeId gp =
        std::atomic_ref<NodeId>(parent[p]).load(std::memory_order_acquire);
    if (gp == p) return p;
    // Halve: point x at its grandparent. A lost race only means another
    // thread already shortened this link.
    slot.compare_exchange_weak(p, gp, std::memory_order_release,
                               std::memory_order_relaxed);
    x = gp;
  }
}

/// Merges the sets of a and b; returns true if they were distinct. The
/// larger root is hooked under the smaller, so the surviving root of every
/// set is its minimum member regardless of interleaving.
inline bool uf_unite(NodeId* parent, NodeId a, NodeId b) {
  while (true) {
    a = uf_find(parent, a);
    b = uf_find(parent, b);
    if (a == b) return false;
    if (a > b) std::swap(a, b);  // hook b (larger) under a (smaller)
    NodeId expected = b;
    if (std::atomic_ref<NodeId>(parent[b])
            .compare_exchange_strong(expected, a, std::memory_order_acq_rel)) {
      return true;
    }
    // b gained a parent between find and hook; retry from the new roots.
  }
}

/// parent[i] = i for all i: every element its own singleton set.
inline void uf_init(const Context& ctx, NodeId* parent, std::size_t n) {
  iota(ctx, n, parent);
}

/// One bulk kernel pointing every element directly at its root. After this,
/// parent[i] IS the set representative (plain loads suffice) — until the
/// next unite.
inline void uf_flatten(const Context& ctx, NodeId* parent, std::size_t n) {
  launch(ctx, n, [&](std::size_t i) {
    // Atomic store: concurrent lanes' find() calls may still be CASing
    // halved links into this same slot.
    const NodeId root = uf_find(parent, static_cast<NodeId>(i));
    std::atomic_ref<NodeId>(parent[i]).store(root, std::memory_order_relaxed);
  });
}

}  // namespace emc::device
