// The hybrid bridge finder proposed at the end of paper §4.3.
//
// CK's bottleneck on large-diameter graphs is BFS, but the marking phase
// does not actually need a BFS tree — any rooted spanning tree works. The
// hybrid therefore:
//
//   spanning_tree      — same device CC spanning forest as TV (unrooted);
//   euler_tour         — Euler tour of that forest rooted below one virtual
//                        node (virtual_root_tree), as in TV;
//   levels_and_parents — parents and levels from the tour (rooting the
//                        unrooted tree, §2.2: "we can, e.g., easily
//                        determine parents of all nodes, which we do in the
//                        hybrid algorithm");
//   mark_non_bridges   — CK's marking phase on the rooted tree, skipping the
//                        virtual parent edges.
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

/// Any graph: connected, disconnected, multigraph or edgeless.
BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
