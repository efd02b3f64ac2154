// The 2-edge-connected block labels of a snapshot under a bridge mask, as
// the engine's 2-ecc index derives them: a ConnectivityOracle over the
// snapshot's spanning forest and forest LCA. Suites that check the labels
// compare their partition with test_support::two_ecc_labels.
#pragma once

#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "dynamic/oracle.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::test_support {

inline std::vector<NodeId> oracle_block_labels(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::BridgeMask& mask) {
  const bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
  return dynamic::ConnectivityOracle(ctx, g, forest,
                                     bridges::forest_lca(ctx, g, forest), mask)
      .block_labels();
}

}  // namespace emc::test_support
