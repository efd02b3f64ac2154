#include "bridges/stitch.hpp"

#include <cassert>

#include "device/primitives.hpp"

namespace emc::bridges {

std::vector<NodeId> component_representatives(const device::Context& ctx,
                                              const SpanningForest& forest) {
  const std::size_t n = forest.component.size();
  std::vector<NodeId> reps(n);
  const std::size_t k = device::copy_if_index(
      ctx, n,
      [&](std::size_t v) {
        return forest.component[v] == static_cast<NodeId>(v);
      },
      reps.data());
  assert(k == forest.num_components);
  reps.resize(k);
  return reps;
}

graph::EdgeList stitch_components(graph::EdgeSpan graph,
                                  const std::vector<NodeId>& reps) {
  graph::EdgeList augmented;
  augmented.num_nodes = graph.num_nodes;
  // reserve + insert: one allocation, one copy of the m-sized edge array
  // (copy-assignment would not be guaranteed to keep a pre-reserved
  // buffer, and assigning first reallocates on the virtual-edge appends).
  augmented.edges.reserve(graph.edges.size() +
                          (reps.empty() ? 0 : reps.size() - 1));
  augmented.edges.insert(augmented.edges.end(), graph.edges.begin(),
                         graph.edges.end());
  for (std::size_t r = 1; r < reps.size(); ++r) {
    augmented.edges.push_back({reps[0], reps[r]});
  }
  return augmented;
}

}  // namespace emc::bridges
