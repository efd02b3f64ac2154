// The union-find of the incremental bridge walk (Westbrook & Tarjan,
// Algorithmica 1992).
//
// Partition a rooted forest into blocks, each a connected subtree under its
// head. The blocks form a forest themselves: a block hangs below the block
// holding its head's parent. A new edge {u, v} inside one tree closes a cycle
// through the tree path u...v, so it merges exactly the blocks that path
// crosses. The walk finds them without an LCA: step the side whose head is
// deeper up into the block above, hooking it there, until both sides reach
// one block. Every step is one merge, so a batch costs O(edges + merges)
// finds.
//
// BlockUnion is sparse: it holds only the blocks a walk hooked, and costs
// nothing per block of the partition. A group's root is always its topmost
// block, so a group's head is its root's head.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace emc::core {

class BlockUnion {
 public:
  /// The root of b's group: b itself unless a walk hooked it.
  NodeId find(NodeId b) {
    while (true) {
      const auto it = parent_.find(b);
      if (it == parent_.end()) return b;
      const auto up = parent_.find(it->second);
      if (up == parent_.end()) return it->second;
      it->second = up->second;  // path halving
      b = up->second;
    }
  }

  /// Hooks root r under root up, which stays its group's root; returns up.
  NodeId hook(NodeId r, NodeId up) {
    parent_.emplace(r, up);
    hooked_.push_back(r);
    return up;
  }

  /// Merges the groups on the block path between blocks a and b of one
  /// tree. level(r) is the depth of root r's head, above(r) the block that
  /// holds the parent of r's head.
  template <typename Level, typename Above>
  void join(NodeId a, NodeId b, const Level& level, const Above& above) {
    a = find(a);
    b = find(b);
    while (a != b) {
      if (level(a) < level(b)) std::swap(a, b);
      a = hook(a, find(above(a)));
    }
  }

  /// The hooked blocks, in hook order: no longer roots, each one's head
  /// lost the bridge to its parent.
  const std::vector<NodeId>& hooked() const { return hooked_; }

 private:
  std::unordered_map<NodeId, NodeId> parent_;  // hooked block -> block above
  std::vector<NodeId> hooked_;
};

}  // namespace emc::core
