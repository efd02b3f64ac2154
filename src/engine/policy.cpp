#include "engine/policy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace emc::engine {

std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kDfs: return "dfs";
    case Backend::kCkMulticore: return "ck_multicore";
    case Backend::kCk: return "ck";
    case Backend::kTv: return "tv";
    case Backend::kHybrid: return "hybrid";
  }
  return "?";
}

std::size_t backend_index(Backend backend) {
  switch (backend) {
    case Backend::kDfs: return 0;
    case Backend::kCkMulticore: return 1;
    case Backend::kCk: return 2;
    case Backend::kTv: return 3;
    case Backend::kHybrid: return 4;
    case Backend::kAuto: break;
  }
  assert(false && "backend_index(kAuto)");
  return 0;
}

// Calibration notes. Each backend is priced at its marginal cost on an
// epoch that already holds its rooted spanning forest and forest LCA (the
// 2-ecc index needs both, so every publish builds them): DFS and CK read a
// Csr the epoch builds only for them, TV runs detect_bridges on the
// forest LCA's tree(), and the hybrid runs CK's marking on it.
//
// The constants come from a probe of those marginal pipelines on the
// bench_e2e graphs (canonical kron_graph(20, 8): n = 2^20, m = 8.04M,
// height 6, mean walk 2.6 per edge; road_graph(1024, 1024, 0.9, 0.02):
// m = 1.90M, height 2922, mean walk 65 per edge), 4 device workers,
// 2 multicore workers, 50 us launches, 4-vCPU VM, seconds over three runs
// (kron / road):
//
//   Csr build 0.67-0.72 / 0.031-0.034, DFS on it 0.40-0.47 / 0.073-0.084;
//   CK (device, Csr excluded) 0.35-0.40 in 12 launches / 0.36-0.37 in 1765
//   (one launch per BFS level, ecc 1758 < height); multicore CK 0.54-0.59 /
//   0.34-0.38; TV detect 0.33-0.43 / 0.15-0.16 in 52 launches (30 at
//   n = 1024, 42 at 2^16: two per doubling of n, its sparse tables' levels,
//   on 10-12 fixed); hybrid marking 0.12-0.13 / 0.76-0.84 in 5 launches.
//
//   Sync — a launch that wakes the pool costs 70-77 us against the
//          modeled 50 (empty launches over 4096 elements per worker, 2 and
//          4 workers): ~25 us of barrier, charged per launch as
//          pool_sync_ns. It is noise at 1M nodes but a third of a small
//          graph's mask (the hybrid's 5 launches on a 2k-node road).
//   DFS  — the Csr build scales worse than linearly on kron (its hubs
//          serialize the scatter's atomics): node ~5, edge ~28 ns per
//          half-edge plus the Csr's launches match road (0.11 s) and
//          keep kron (0.46 s predicted, 1.1-1.2 measured) above TV.
//   TV   — the two shapes fit node ~310, edge ~140 ns (at one worker).
//   CK   — launch term one per level up to the height (a bound: road's
//          BFS runs 1765 levels below height 2922) plus the Csr's;
//          work ~20 node / ~400 edge ns with the Csr folded in. The
//          multicore variant pays a pool sync per BFS level instead of
//          a launch.
//   Hybrid — one constant per edge and per walk step: ~20 ns over
//          m * (1 + walk) fits kron (17 ns), road (27 ns: long walks miss
//          cache) and bench_engine's four scenarios (15-23 ns). The walk
//          is sampled, not bounded by the height: road's 65 per edge is 2%
//          of its height, bench_engine's road-ribbon walks 5 per edge at
//          height 7485, and there the hybrid beats DFS with its Csr.
//
// Predicted (kron / road): hybrid 0.15 / 0.61, TV 0.37 / 0.15, DFS 0.46 /
// 0.11, CK 0.81 / 0.42, multicore CK 1.62 / 0.46 — the measured order of
// the three that matter: hybrid < TV < DFS on kron, DFS < TV < hybrid on
// road. The same table picks the measured winner (or one within its
// 1.25x bar) on bench_engine's four scenarios: the hybrid on kron,
// social and road-ribbon, DFS on road-square.

namespace {

// build_csr's launches on the device context, which DFS and CK pay for
// (its work is folded into their per-element constants).
constexpr double kCsrLaunches = 3.0;
// TV's low and high sparse tables launch once per level: two per doubling
// of n on top of CostModel::tv_launches.
constexpr double kTvLaunchesPerLog2 = 2.0;

}  // namespace

double CostModel::seconds(Backend backend, const PlanInputs& inputs) const {
  const double n = static_cast<double>(inputs.n);
  const double m = static_cast<double>(inputs.m);
  const double height = static_cast<double>(std::max<NodeId>(inputs.height, 1));
  const double device_w = std::max(1u, inputs.device_workers);
  const double multicore_w = std::max(1u, inputs.multicore_workers);
  // A pool of one runs each launch inline, with no barrier.
  const double sync = pool_sync_ns * 1e-9;
  const double launch =
      inputs.launch_overhead + (inputs.device_workers > 1 ? sync : 0.0);
  const double multicore_launch = inputs.multicore_workers > 1 ? sync : 0.0;
  const double ck_work_ns = ck_node_ns * n + ck_edge_ns * m;
  const double ck_launches = ck_launches_per_level * height + ck_fixed_launches;
  switch (backend) {
    case Backend::kDfs:
      return kCsrLaunches * launch +
             (dfs_node_ns * n + dfs_edge_ns * 2.0 * m) * 1e-9;
    case Backend::kCkMulticore:
      // The Csr is built on the device; CK's levels run on the multicore
      // pool, which charges no launch latency but still synchronizes.
      return kCsrLaunches * launch + ck_launches * multicore_launch +
             ck_work_ns / multicore_w * 1e-9;
    case Backend::kCk:
      return (kCsrLaunches + ck_launches) * launch +
             ck_work_ns / device_w * 1e-9;
    case Backend::kTv:
      return (tv_launches + kTvLaunchesPerLog2 * std::log2(std::max(n, 2.0))) *
                 launch +
             (tv_node_ns * n + tv_edge_ns * m) / device_w * 1e-9;
    case Backend::kHybrid:
      return hybrid_launches * launch +
             (hybrid_node_ns * n + hybrid_edge_ns * m * (1.0 + inputs.walk)) /
                 device_w * 1e-9;
    case Backend::kAuto: break;
  }
  assert(false && "CostModel::seconds(kAuto)");
  return 0.0;
}

Backend Policy::choose(const PlanInputs& inputs) const {
  if (backend != Backend::kAuto) return backend;
  Backend best = Backend::kDfs;
  double best_seconds = model.seconds(best, inputs);
  for (const Backend candidate : kFixedBackends) {
    const double seconds = model.seconds(candidate, inputs);
    if (seconds < best_seconds) {
      best = candidate;
      best_seconds = seconds;
    }
  }
  return best;
}

bool Policy::use_device_batch(std::size_t size, const PlanInputs& inputs) const {
  if (min_device_batch > 0) return size >= min_device_batch;
  // One bulk kernel costs the launch latency plus the divided per-query
  // work; the host loop pays the undivided work with no latency.
  const double device_w = std::max(1u, inputs.device_workers);
  const double host_seconds = model.query_host_ns * size * 1e-9;
  const double device_seconds =
      inputs.launch_overhead + model.query_device_ns * size / device_w * 1e-9;
  return device_seconds < host_seconds;
}

}  // namespace emc::engine
