// Common types for the bridge-finding algorithms (paper §4).
//
// Problem: given an undirected graph (a multigraph, possibly disconnected),
// decide for every edge whether it is a bridge. All four algorithms
// (sequential DFS, multi-core CK, device CK, device TV, plus the §4.3
// hybrid) produce the same per-edge boolean vector, indexed by EdgeList
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace emc::bridges {

/// Per-undirected-edge verdict, aligned with EdgeList::edges.
using BridgeMask = std::vector<std::uint8_t>;

/// Number of bridges in a mask.
inline std::size_t count_bridges(const BridgeMask& mask) {
  std::size_t count = 0;
  for (const auto b : mask) count += b;
  return count;
}

}  // namespace emc::bridges
