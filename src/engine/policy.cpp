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

// Calibration notes. Each auto backend is priced at its marginal cost on
// an epoch that already holds its rooted spanning forest and forest LCA
// (the 2-ecc index needs both, so every publish builds them): TV runs
// detect_bridges on the forest LCA's tree(), and the hybrid runs CK's
// marking on it.
//
// The constants come from a probe of those marginal pipelines on the
// bench_e2e graphs (canonical kron_graph(20, 8): n = 2^20, m = 8.04M,
// mean walk 2.6 per edge; road_graph(1024, 1024, 0.9, 0.02): m = 1.90M,
// mean walk 65 per edge) and on bench_engine's four scenarios, 4 device
// workers, 50 us launches, 4-vCPU VM, medians of five over four probe
// passes (kron / road, ms):
//
//   TV detect 82-102 / 19-23 in 20 launches (10 at n = 1024: six fixed
//   plus one per level of low/high's sparse table over n/64 block folds);
//   hybrid marking 79-81 / 450-476 in 5 launches. bench_engine (ns per
//   edge, three runs): TV 13-18 / 14-19 / 22-25 / 20-24 on kron, social,
//   road-square and road-ribbon, the hybrid 6-10 / 12-24 / 30-35 / 16-18.
//   The forced baselines were never the fastest row there: DFS with its
//   Csr 51-67 / 58-69 / 39-52 / 44-50, CK 61-1747.
//
//   Sync — a launch that wakes the pool costs 70-77 us against the
//          modeled 50 (empty launches over 4096 elements per worker, 2 and
//          4 workers): ~25 us of barrier, charged per launch as
//          pool_sync_ns. It is noise at 1M nodes but a third of a small
//          graph's mask (the hybrid's 5 launches on a 2k-node road).
//   TV   — node ~15, edge ~40 ns (per worker) fit all six instances to
//          within 10%, social to 18%. Sort-free low/high made it 3-4x
//          cheaper than the sort + full sparse tables it replaced (310 /
//          140 ns).
//   Hybrid — one constant per edge and per walk step: ~10 ns over
//          m * (1 + walk). The six instances fit 4 (kron, in cache) to
//          15 (road 1M, where long walks miss cache); 11 on kron 1M. A
//          walk loads its mark before storing it, so the walks that
//          converge near a shallow tree's root share its cache lines
//          instead of bouncing them (social read 21-37 ns per edge with
//          a store per step). The walk is sampled, not bounded by the
//          forest's height: road's 65 per edge is 2% of its height,
//          road-ribbon walks 5 per edge at height 7485, and there the
//          hybrid beats TV.
//
// Predicted (kron / road, ms): hybrid 76 / 316, TV 86 / 24 — the measured
// order: the hybrid on kron, TV on road. The same table picks the measured
// winner (or one within bench_engine's 1.25x bar) on its four scenarios:
// the hybrid on kron, social and road-ribbon, TV on road-square.

namespace {

// TV's low/high launches once per level of its sparse table over the n/64
// block folds: one per doubling of n past 64, on top of
// CostModel::tv_launches.
constexpr double kTvLaunchesPerLog2 = 1.0;

}  // namespace

double CostModel::seconds(Backend backend, const PlanInputs& inputs) const {
  const double n = static_cast<double>(inputs.n);
  const double m = static_cast<double>(inputs.m);
  const double device_w = std::max(1u, inputs.device_workers);
  // A pool of one runs each launch inline, with no barrier.
  const double launch = inputs.launch_overhead +
                        (inputs.device_workers > 1 ? pool_sync_ns * 1e-9 : 0.0);
  switch (backend) {
    case Backend::kTv:
      return (tv_launches +
              kTvLaunchesPerLog2 * std::log2(std::max(n / 64.0, 1.0))) *
                 launch +
             (tv_node_ns * n + tv_edge_ns * m) / device_w * 1e-9;
    case Backend::kHybrid:
      return hybrid_launches * launch +
             (hybrid_node_ns * n + hybrid_edge_ns * m * (1.0 + inputs.walk)) /
                 device_w * 1e-9;
    default: break;
  }
  assert(false && "CostModel::seconds: not an auto backend");
  return 0.0;
}

Backend Policy::choose(const PlanInputs& inputs) const {
  if (backend != Backend::kAuto) return backend;
  Backend best = kAutoBackends.front();
  double best_seconds = model.seconds(best, inputs);
  for (const Backend candidate : kAutoBackends) {
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
