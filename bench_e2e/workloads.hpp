// The benchmark's workloads and the inputs each one generates from a seed:
// the graph, the timed update stream, the timed request stream, and the
// correctness-gate and capacity samples. Every rate, burst shape and
// options struct is a constant here — nothing is calibrated against the
// code under test, so every commit is offered the same load.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"

namespace e2e {

using emc::NodeId;

enum Family : std::uint8_t {
  kSame2Ecc = 0,
  kBridgesOnPath,
  kLca,
  kComponentSize,
  kSameBcc,
  kCcMembership,
  kNumFamilies,
};

inline const char* family_name(int f) {
  static const char* const kNames[kNumFamilies] = {
      "same2ecc", "bridges_on_path", "lca",
      "component_size", "same_bcc", "cc_membership"};
  return kNames[f];
}

/// How updates arrive.
enum class Writes : std::uint8_t {
  kInsertStream,  // Poisson inserts at `write_rate`
  kChurn,         // per period: an erase burst, then an insert burst
  kInsertBursts,  // per period: one insert burst
};

struct Workload {
  std::string name;
  std::string why;
  bool kron = false;  // kron_graph(20, 8) vs road_graph(1024, 1024)
  // Reads: open-loop Poisson single-pair requests, family uniform over mix.
  double read_rate = 0.0;
  std::vector<Family> mix;
  bool zipf = false;  // log-uniform rank (Zipf s=1) vs uniform vertices
  // Writes.
  Writes writes = Writes::kInsertStream;
  double write_rate = 0.0;       // kInsertStream
  std::size_t burst = 0;         // kChurn / kInsertBursts: updates per burst
  double period_s = 0.0;         // burst period; also the sub-window
  double phase_s = 0.05;         // first burst's offset into its period
  // The batcher's linger. Bursts arrive within kBurstWidthS, well inside
  // it, so each burst is cut as one batch and publishes once.
  std::chrono::microseconds linger{5000};
};

inline constexpr double kBurstWidthS = 0.001;  // a burst's arrival window
inline constexpr double kInsertLagS = 0.05;    // churn: inserts after erases
inline constexpr std::size_t kMaxBatch = 2048;
inline constexpr unsigned kServeWorkers = 2;
inline constexpr unsigned kDeviceWorkers = 4;
inline constexpr unsigned kMulticoreWorkers = 2;
inline constexpr std::size_t kGatePerFamily = 64;
// One request in flight: no coalescing, so the CPU cost per reply is the
// whole per-request path and does not depend on how rounds happen to merge.
inline constexpr std::size_t kCapacityOutstanding = 1;
inline constexpr int kCapacityPhases = 5;
inline constexpr double kCapacitySeconds = 0.4;

inline std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "road-insert";
    w.why = "insert-only stream on a 1M-node road grid: every publish replays "
            "the delta, so ingest, apply and replay publish form the "
            "visibility path";
    w.read_rate = 2000.0;
    w.mix = {kSame2Ecc, kBridgesOnPath, kLca, kComponentSize};
    w.writes = Writes::kInsertStream;
    w.write_rate = 4000.0;
    w.period_s = 2.5;  // sub-window length only: the stream has no bursts
    // A 100 ms linger cuts ~400-update batches, so the writer and its
    // device pool idle between publishes instead of saturating the cores.
    w.linger = std::chrono::microseconds(100000);
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "road-churn";
    w.why = "erase bursts force the full Euler-tour rebuild on the paper's "
            "hard high-diameter instance while reads contend with it";
    w.read_rate = 1500.0;
    w.mix = {kSame2Ecc, kBridgesOnPath, kLca, kComponentSize};
    w.writes = Writes::kChurn;
    w.burst = 1024;
    w.period_s = 2.5;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "kron-read";
    w.why = "Zipf-skewed six-family reads on 1M-node kron (the easy "
            "instance): coalescing, dedup and the answer path dominate";
    w.kron = true;
    w.read_rate = 5000.0;
    w.mix = {kSame2Ecc, kBridgesOnPath, kLca,
             kComponentSize, kSameBcc, kCcMembership};
    w.zipf = true;
    w.writes = Writes::kInsertBursts;
    w.burst = 512;
    // Each epoch's first SameBcc builds the index, and the lanes stall
    // behind that build; a long period keeps the stalled share of the
    // window well below half.
    w.period_s = 5.0;
    w.phase_s = 2.5;
    out.push_back(w);
  }
  return out;
}

inline emc::engine::EngineOptions engine_options() {
  emc::engine::EngineOptions o;
  o.device_workers = kDeviceWorkers;
  o.multicore_workers = kMulticoreWorkers;
  o.calibrate = false;  // the committed cost model, never refitted here
  return o;
}

inline emc::ingest::IngestorOptions ingest_options(const Workload& w) {
  emc::ingest::IngestorOptions o;
  o.queue_bound = std::size_t{1} << 16;
  o.admission = emc::ingest::Admission::kBlock;
  o.max_batch = kMaxBatch;
  o.linger = w.linger;
  o.adaptive_linger = false;  // a fixed window: the batch shape is a constant
  o.publish_every = 1;
  o.publish_min_interval = std::chrono::microseconds(0);
  return o;
}

inline emc::serve::DispatcherOptions dispatcher_options() {
  emc::serve::DispatcherOptions o;
  o.workers = kServeWorkers;
  o.queue_bound = std::size_t{1} << 16;
  o.admission = emc::serve::Admission::kBlock;
  return o;
}

// --------------------------------------------------------------- inputs

struct Update {
  emc::graph::Edge edge{};
  bool erase = false;
  double due_s = 0.0;  // from the start of the load window
};

struct Query {
  double due_s = 0.0;
  Family family = kSame2Ecc;
  NodeId u = 0;
  NodeId v = 0;
};

struct Inputs {
  emc::graph::EdgeList graph;
  std::vector<Update> updates;  // due order
  std::vector<Query> queries;   // due order
  std::vector<Query> gate;      // correctness sample, kGatePerFamily each
  std::vector<Query> capacity;  // closed-loop request pool
  std::size_t erase_bursts = 0;
  /// Canonical keys of the edge set expected after every update applied.
  std::vector<std::uint64_t> final_keys;
};

inline std::vector<std::uint64_t> canonical_keys(const emc::graph::EdgeList& g) {
  std::vector<std::uint64_t> keys;
  keys.reserve(g.edges.size());
  for (const auto& e : g.edges) {
    if (e.u != e.v) keys.push_back(emc::graph::edge_key(e.u, e.v));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

inline emc::graph::Edge edge_of_key(std::uint64_t key) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xffffffffu)};
}

inline Inputs generate(const Workload& w, std::uint64_t seed, double seconds) {
  constexpr NodeId kSide = 1024;
  Inputs in;
  in.graph = w.kron ? emc::gen::kron_graph(20, 8.0, seed)
                    : emc::gen::road_graph(kSide, kSide, 0.9, 0.02, seed);
  const NodeId n = in.graph.num_nodes;
  const std::vector<NodeId> comp =
      emc::graph::connected_component_labels(in.graph);
  const std::vector<std::uint64_t> initial = canonical_keys(in.graph);
  Prng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  // Fresh edges: absent from the initial graph, never drawn before, and
  // inside one initial component, so an insert-only publish can always
  // replay (no batch closes a cycle across components). Road edges are
  // local (a few grid steps), kron edges uniform.
  std::unordered_set<std::uint64_t> drawn;
  const auto fresh = [&]() -> emc::graph::Edge {
    for (;;) {
      const auto u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      NodeId v = 0;
      if (w.kron) {
        v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      } else {
        const auto dx = static_cast<NodeId>(rng.below(7)) - 3;
        const auto dy = static_cast<NodeId>(rng.below(7)) - 3;
        const NodeId x = std::clamp<NodeId>(u % kSide + dx, 0, kSide - 1);
        const NodeId y = std::clamp<NodeId>(u / kSide + dy, 0, kSide - 1);
        v = y * kSide + x;
      }
      if (u == v || comp[u] != comp[v]) continue;
      const std::uint64_t key = emc::graph::edge_key(u, v);
      if (std::binary_search(initial.begin(), initial.end(), key)) continue;
      if (!drawn.insert(key).second) continue;
      return {u, v};
    }
  };

  std::vector<std::uint64_t> present;  // churn: erase victims drawn here
  if (w.writes == Writes::kChurn) present = initial;
  std::vector<std::uint64_t> inserted;
  std::vector<std::uint64_t> erased;
  const auto add_inserts = [&](const std::vector<double>& times) {
    for (const double t : times) {
      const emc::graph::Edge e = fresh();
      in.updates.push_back({e, false, t});
      const std::uint64_t key = emc::graph::edge_key(e.u, e.v);
      inserted.push_back(key);
      if (w.writes == Writes::kChurn) present.push_back(key);
    }
  };
  switch (w.writes) {
    case Writes::kInsertStream:
      add_inserts(piecewise_poisson({{0.0, seconds, w.write_rate}}, rng));
      break;
    case Writes::kChurn:
    case Writes::kInsertBursts: {
      const auto periods =
          std::max<std::size_t>(1, static_cast<std::size_t>(seconds / w.period_s));
      for (std::size_t p = 0; p < periods; ++p) {
        const double at = static_cast<double>(p) * w.period_s + w.phase_s;
        if (w.writes == Writes::kChurn) {
          for (const double t : fixed_burst(at, kBurstWidthS, w.burst, rng)) {
            const std::size_t i = rng.below(present.size());
            const std::uint64_t key = present[i];
            present[i] = present.back();
            present.pop_back();
            erased.push_back(key);
            in.updates.push_back({edge_of_key(key), true, t});
          }
          ++in.erase_bursts;
          add_inserts(fixed_burst(at + kInsertLagS, kBurstWidthS, w.burst, rng));
        } else {
          add_inserts(fixed_burst(at, kBurstWidthS, w.burst, rng));
        }
      }
      break;
    }
  }

  // Expected final edge set: initial - erased + inserted (erased edges were
  // present when drawn, inserted ones fresh, so the multiset is a set).
  std::sort(erased.begin(), erased.end());
  std::vector<std::uint64_t> kept;
  std::set_difference(initial.begin(), initial.end(), erased.begin(),
                      erased.end(), std::back_inserter(kept));
  std::sort(inserted.begin(), inserted.end());
  std::vector<std::uint64_t> erased_inserts;
  std::set_intersection(inserted.begin(), inserted.end(), erased.begin(),
                        erased.end(), std::back_inserter(erased_inserts));
  std::vector<std::uint64_t> live_inserts;
  std::set_difference(inserted.begin(), inserted.end(), erased_inserts.begin(),
                      erased_inserts.end(), std::back_inserter(live_inserts));
  std::merge(kept.begin(), kept.end(), live_inserts.begin(), live_inserts.end(),
             std::back_inserter(in.final_keys));

  // Requests. Zipf: log-uniform rank, so low ids (the kron hubs) are hot.
  const auto vertex = [&]() -> NodeId {
    if (!w.zipf) return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const double rank = std::pow(static_cast<double>(n), rng.uniform());
    return std::min<NodeId>(static_cast<NodeId>(rank) - 1, n - 1);
  };
  const auto query = [&](double due, Family f) {
    Query q{due, f, vertex(), 0};
    do {
      q.v = vertex();
    } while (q.v == q.u);
    return q;
  };
  const auto pick = [&] { return w.mix[rng.below(w.mix.size())]; };
  for (const double t : piecewise_poisson({{0.0, seconds, w.read_rate}}, rng)) {
    in.queries.push_back(query(t, pick()));
  }
  for (const Family f : w.mix) {
    for (std::size_t i = 0; i < kGatePerFamily; ++i) {
      in.gate.push_back(query(0.0, f));
    }
  }
  for (std::size_t i = 0; i < 4096; ++i) in.capacity.push_back(query(0.0, pick()));
  return in;
}

}  // namespace e2e
