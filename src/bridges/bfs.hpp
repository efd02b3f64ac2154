// Level-synchronous parallel BFS (paper §4.1).
//
// The CK bridge-finding algorithm uses BFS to build its rooted spanning tree
// ("a parallel BFS is used in most implementations"; the paper's GPU variant
// is "based on [Merrill-Garland-Grimshaw] and using moderngpu primitives").
// We implement the standard frontier-expansion structure: one bulk kernel
// per BFS level expands the current frontier, claims unvisited neighbors
// with an atomic CAS, and compacts them into the next frontier. The number
// of global barriers equals the graph's eccentricity from the sources —
// exactly the diameter sensitivity that drives Figures 9-11.
#pragma once

#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::bridges {

struct BfsTree {
  std::vector<NodeId> parent;       // kNoNode at a source / unreached
  std::vector<EdgeId> parent_edge;  // undirected edge id used to reach node
  std::vector<NodeId> level;        // hops from the nearest source; kNoNode
                                    // if unreached
  NodeId num_levels = 0;
};

/// Multi-source BFS: every source starts at level 0, so one source per
/// component yields a BFS forest of the whole graph.
BfsTree bfs(const device::Context& ctx, const graph::Csr& graph,
            const std::vector<NodeId>& sources,
            util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
