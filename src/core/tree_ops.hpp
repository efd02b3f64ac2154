// Preorder interval sums (paper §2: "many node statistics can be easily
// calculated as prefix sums or range queries").
//
// A subtree of c occupies the preorder interval [pre(c), pre(c) + size(c)),
// so a weight carried by a whole subtree is a difference pair (+w at the
// interval's start, -w past its end), and the weight on a root path or inside
// a subtree is read from one prefix sum over the positions. The inlabel LCA's
// ascendant masks and the 2-ecc replay's bridge-depth update read this one
// implementation, and so does the replay's block renumbering: blocks are
// numbered in their heads' preorder, and a block's new number is its old
// one less the merged-away blocks below it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "device/arena.hpp"
#include "device/context.hpp"
#include "device/primitives.hpp"
#include "util/types.hpp"

namespace emc::core {

/// Weights on preorder positions [0, positions). below(p), p < positions,
/// is the weight at positions < p: a subtree interval [pre(c), pre(c) +
/// size(c)) reads as a difference of two, and the intervals holding pre(v)
/// (those of v's root path's nodes) as below(pre(v) + 1). scatter(i, add)
/// adds item i's weights, i < count, through add(position, weight);
/// `queries` counts the caller's reads. The sparse form sorts the points on
/// the host and binary-searches them; the dense form fills a prefix array
/// over all positions in the caller's arena scope (three launches). The
/// cheaper one runs, by costs measured on 4 workers, in ns: a sparse item
/// 250 (its serial sort), a sparse query 12; a launch 25k plus its modelled
/// latency, a dense position 0.25.
class PreorderWeights {
 public:
  template <typename Scatter>
  PreorderWeights(const device::Context& ctx, device::Arena::Scope& scope,
                  std::size_t positions, std::size_t count,
                  std::size_t queries, Scatter&& scatter) {
    const double dense = 3e9 * ctx.launch_overhead() + 75e3 + positions / 4.0;
    if (250.0 * count + 12.0 * queries < dense) {
      for (std::size_t i = 0; i < count; ++i) {
        scatter(i, [&](NodeId p, NodeId w) { points_.push_back({p, w}); });
      }
      std::sort(points_.begin(), points_.end());
      NodeId run = 0;  // each point's weight becomes the weight before it
      for (auto& point : points_) run += std::exchange(point.second, run);
      points_.push_back({std::numeric_limits<NodeId>::max(), run});
      return;
    }
    sum_ = scope.get<NodeId>(positions);
    device::fill(ctx, positions, sum_, NodeId{0});
    device::launch(ctx, count, [&](std::size_t i) {
      scatter(i, [&](NodeId p, NodeId w) {
        std::atomic_ref<NodeId>(sum_[p]).fetch_add(w,
                                                   std::memory_order_relaxed);
      });
    });
    device::exclusive_scan(ctx, sum_, positions, sum_);
  }

  NodeId below(NodeId p) const {
    if (sum_ != nullptr) return sum_[p];
    return std::lower_bound(points_.begin(), points_.end(),
                            std::pair{p, std::numeric_limits<NodeId>::min()})
        ->second;
  }

 private:
  NodeId* sum_ = nullptr;                          // dense: prefix sums
  std::vector<std::pair<NodeId, NodeId>> points_;  // sparse, sorted
};

}  // namespace emc::core
