// The hybrid bridge finder proposed at the end of paper §4.3.
//
// CK's bottleneck on large-diameter graphs is BFS, but the marking phase
// does not actually need a BFS tree — any rooted spanning tree works. The
// hybrid therefore:
//
//   spanning_tree      — same device CC spanning tree as TV (unrooted);
//   euler_tour         — Euler tour construction on that tree;
//   levels_and_parents — parents and levels from the tour (rooting the
//                        unrooted tree, §2.2: "we can, e.g., easily
//                        determine parents of all nodes, which we do in the
//                        hybrid algorithm");
//   mark_non_bridges   — CK's marking phase on the rooted tree.
//
// The paper's finding, which our benches reproduce: hybrid is often faster
// than CK (no diameter-bound BFS), but never beats TV, because both start
// with spanning tree + Euler tour and TV's remaining detect phase is
// cheaper than a marking phase.
#pragma once

#include "bridges/bridges.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace emc::bridges {

/// Requires a connected graph.
BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
