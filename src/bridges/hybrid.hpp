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
//
// The tour form (second overload) is the marking alone, on a forest an
// earlier step already rooted — the engine passes its forest LCA's tree(),
// so the epoch's one Euler tour serves TV, the hybrid, the 2-ecc and the
// BCC index alike. Each marking walk climbs at most the tree's height per
// endpoint, which is what the engine's cost model charges it.
#pragma once

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "core/euler_tour.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace emc::bridges {

/// Any graph: connected, disconnected, multigraph or edgeless.
BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               util::PhaseTimer* phases = nullptr);

/// mark_non_bridges alone, on `forest` already rooted below virtual node
/// graph.num_nodes (root_forest's stats, e.g. a forest LCA's tree()).
BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               const SpanningForest& forest,
                               const core::TreeStats& tree,
                               util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
