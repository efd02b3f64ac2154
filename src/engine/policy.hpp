// Backend selection policy for the engine (paper §4 + ISSUE 4).
//
// The paper's headline finding is that the SAME bridge/2-ecc problem is
// best served by different backends depending on the instance: sequential
// DFS on one core, CK on multicore, CK/TV/hybrid on the device — with the
// winner decided by graph shape (depth, density) and, for query serving,
// by the batch size (Figure 6's launch-overhead regime). In the
// spirit of Optiplan (PAPERS.md), which let IP-based and graph-based
// planners compete per instance behind one interface, a Policy either
// forces one backend or resolves kAuto through an explicit cost model.
//
// The cost model is deliberately simple — per-element work constants plus
// a per-kernel launch charge — and is CALIBRATED, not derived: the
// constants in CostModel's defaults are fitted to measurements (see the
// notes in policy.cpp). Its depth inputs come from the epoch's rooted
// spanning forest, which the epoch's one Euler tour already holds: the
// forest's height, and the mean marking walk on a sampled few hundred
// edges. Deciding costs no Csr and no BFS sweeps. It only has to rank
// backends, not predict wall time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/types.hpp"

namespace emc::engine {

class Engine;

/// The bridge-finding backends a Session can dispatch to. All produce the
/// identical per-edge verdict; they differ only in cost shape.
enum class Backend {
  kAuto = 0,     // resolve through the cost model
  kDfs,          // sequential Hopcroft-Tarjan on the CSR (cpu1 baseline)
  kCkMulticore,  // Chaitanya-Kothapalli on the multicore context
  kCk,           // Chaitanya-Kothapalli on the device context
  kTv,           // Tarjan-Vishkin detection on the epoch's rooted forest
  kHybrid,       // CK marking on the epoch's rooted forest (§4.3)
};

inline constexpr std::size_t kNumBackends = 5;

/// The fixed (non-auto) backends, in the order Plan::predicted_seconds and
/// EngineStats::backend_runs are indexed.
inline constexpr std::array<Backend, kNumBackends> kFixedBackends = {
    Backend::kDfs, Backend::kCkMulticore, Backend::kCk, Backend::kTv,
    Backend::kHybrid};

std::string_view to_string(Backend backend);

/// Index of a fixed backend in kFixedBackends order (kAuto not allowed).
std::size_t backend_index(Backend backend);

/// What the cost model sees: instance statistics (from the epoch's
/// record) and machine parameters (from the engine's contexts).
struct PlanInputs {
  NodeId n = 0;
  std::size_t m = 0;
  /// Height of the epoch's rooted spanning forest: the largest level of the
  /// forest LCA's tree() (virtual root 0, component roots 1). It bounds both
  /// depth-dependent costs: CK's BFS from a component root runs ecc(root) <=
  /// height levels, and a marking walk climbs at most height tree edges per
  /// endpoint. Free once the epoch's Euler tour exists.
  NodeId height = 0;
  /// Mean tree edges a marking walk climbs per edge (tree edges count 0),
  /// measured on a strided sample of the snapshot's edges up the forest
  /// LCA's tree. The height only bounds it, and loosely: on a road grid the
  /// walks average ~2% of the height, on a narrow ribbon well under 1%.
  double walk = 0.0;
  unsigned device_workers = 1;
  unsigned multicore_workers = 1;
  double launch_overhead = 0.0;  // seconds per device kernel launch
};

/// Per-element work constants (nanoseconds) and launch counts, each backend
/// priced at its MARGINAL cost on an epoch whose rooted spanning forest
/// already exists (every publish builds it for the 2-ecc index): DFS and CK
/// pay for the Csr they read, TV only for its detect phase, the hybrid only
/// for its marking. Defaults are fitted to measurements (policy.cpp);
/// override to recalibrate for other hardware without rebuilding.
struct CostModel {
  // Sequential DFS over n + 2m adjacency slots, the Csr build folded in.
  double dfs_node_ns = 5.0;
  double dfs_edge_ns = 28.0;  // per directed half-edge (the model doubles m)
  // Tarjan-Vishkin's detect phase on the rooted forest (low/high + the
  // criterion). Its launches are these fixed ones (sort, scans) plus two
  // per doubling of n, one per level of its low and high sparse tables.
  double tv_node_ns = 310.0;
  double tv_edge_ns = 140.0;
  double tv_launches = 12.0;
  // CK, the Csr build folded in: the depth cost is the BFS LAUNCH COUNT
  // (one launch per level, at most height levels), not the marking walks —
  // walks on a BFS tree stay local, so marking folds into the flat
  // per-edge constant.
  double ck_node_ns = 20.0;
  double ck_edge_ns = 400.0;
  double ck_launches_per_level = 1.0;
  double ck_fixed_launches = 10.0;
  // The barrier of a launch on a pool of several workers: waking them and
  // waiting for the last. Every such launch pays it, on the device on top
  // of the modeled launch latency; on the multicore context (no modeled
  // latency) it is what each of CK's BFS levels costs.
  double pool_sync_ns = 25000.0;
  // Hybrid: CK's marking alone on the rooted forest. Its walks are not
  // local on a deep tree, so the per-edge constant is charged once per
  // edge and once per tree edge the mean walk climbs (m * (1 + walk)).
  double hybrid_node_ns = 10.0;
  double hybrid_edge_ns = 20.0;
  double hybrid_launches = 5.0;
  // Point queries on the 2-ecc index / forest LCA (per query; identical
  // arithmetic either way, so the device only wins by dividing it).
  double query_host_ns = 30.0;
  double query_device_ns = 30.0;

  /// Predicted seconds for one bridge-mask computation with `backend`
  /// (kAuto not allowed) on the given instance.
  double seconds(Backend backend, const PlanInputs& inputs) const;
};

/// How a Session chooses and runs backends. Default-constructed = full auto.
struct Policy {
  /// Forced backend for bridge-mask computations, or kAuto to let the cost
  /// model pick per request.
  Backend backend = Backend::kAuto;
  /// Query batches at least this large run as ONE bulk device kernel;
  /// smaller batches loop on the host, dodging the launch overhead that
  /// makes small batches wasteful on the device (Figure 6). 0 = derive the
  /// threshold from the model and machine parameters.
  std::size_t min_device_batch = 0;
  /// Degradation knob for concurrent serving: when a device-routed query
  /// batch finds the driver lock held (a writer mid-pipeline, or another
  /// reader's kernel), answer with the host loop instead of queueing behind
  /// it. Identical answers, bounded latency; counted in
  /// EngineStats::host_fallbacks.
  bool host_fallback_when_busy = false;
  CostModel model{};

  static Policy fixed(Backend backend) {
    Policy policy;
    policy.backend = backend;
    return policy;
  }

  /// Auto-fits the CostModel to THIS machine with a ~120ms startup
  /// microbenchmark. It first measures pool_sync_ns (empty launches wide
  /// enough to wake every worker, less the modeled launch latency), then
  /// runs the fixed backends on two calibration instances of a few tens of
  /// thousands of edges (a tall road ribbon and a dense shallow kron),
  /// timed as the model prices them — DFS and CK including the Csr build,
  /// TV and the hybrid on a forest rooted outside the timer. The launch
  /// and sync charges are subtracted from the measured times, and each
  /// backend's work constants are scaled by the measured / predicted work
  /// ratio: TV and the hybrid over both instances, DFS over the ribbon
  /// and CK over the kron (see engine.cpp). The committed constants stay
  /// as both the structural prior — launch counts, height and walk
  /// dependence and the node/edge split are NOT refitted, only scaled —
  /// and the fallback: a non-finite or wildly implausible ratio (outside
  /// [1/50, 50], i.e. noise) leaves that backend's constants untouched.
  /// Implemented in engine.cpp (it drives the engine's execution contexts).
  void calibrate(Engine& engine);

  /// Resolves this policy for one bridge request: the forced backend, or
  /// the cost-model argmin over kFixedBackends.
  Backend choose(const PlanInputs& inputs) const;

  /// True iff a query batch of `size` should run as a device kernel.
  bool use_device_batch(std::size_t size, const PlanInputs& inputs) const;
};

/// The resolved decision for one bridge request — exposed so benches and
/// tests can audit the policy (and print WHY a backend was picked).
struct Plan {
  Backend chosen = Backend::kAuto;
  std::array<double, kNumBackends> predicted_seconds{};  // kFixedBackends order
  PlanInputs inputs;
};

}  // namespace emc::engine
