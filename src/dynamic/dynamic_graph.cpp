#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "device/primitives.hpp"
#include "device/sort.hpp"
#include "util/failpoint.hpp"

namespace emc::dynamic {

namespace {

/// Directed key: source in the high word, so sorting groups half-edges by
/// the segment they land in. (The undirected dedup key is the shared
/// graph::edge_key.)
std::uint64_t pack_directed(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Sentinel for invalid batch entries; sorts past every real key.
constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};

/// Slack policy: a quarter of the occupancy, at least 4 slots, so repeated
/// small batches amortize to O(1) moves per inserted edge. Shared by the
/// adjacency segments and the edge log.
template <typename Count>
Count capacity_for(Count need) {
  return need + std::max<Count>(4, need / 4);
}

graph::Edge edge_of_key(std::uint64_t key) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xffffffffULL)};
}

/// Half-open bounds of run r in a directed key array of `total` entries.
std::pair<std::size_t, std::size_t> run_bounds(
    const std::vector<EdgeId>& run_start, std::size_t runs, std::size_t total,
    std::size_t r) {
  const auto begin = static_cast<std::size_t>(run_start[r]);
  const std::size_t end =
      r + 1 < runs ? static_cast<std::size_t>(run_start[r + 1]) : total;
  return {begin, end};
}

/// Expands canonical undirected keys into both directed half-edge keys,
/// sorted by source node; fills run_start with each distinct source's first
/// index and returns the run count. Shared by the insert and erase paths —
/// consecutive runs are exactly the per-segment work lists.
std::size_t expand_directed_runs(const device::Context& ctx,
                                 const std::vector<std::uint64_t>& undirected,
                                 std::vector<std::uint64_t>& dir,
                                 std::vector<EdgeId>& run_start) {
  const std::size_t c = undirected.size();
  dir.resize(2 * c);
  device::launch(ctx, c, [&](std::size_t i) {
    const auto lo = static_cast<NodeId>(undirected[i] >> 32);
    const auto hi = static_cast<NodeId>(undirected[i] & 0xffffffffULL);
    dir[2 * i] = pack_directed(lo, hi);
    dir[2 * i + 1] = pack_directed(hi, lo);
  });
  device::sort_keys(ctx, dir.data(), 2 * c);
  run_start.resize(2 * c);
  return device::copy_if_index(
      ctx, 2 * c,
      [&](std::size_t i) {
        return i == 0 || (dir[i] >> 32) != (dir[i - 1] >> 32);
      },
      run_start.data());
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : num_nodes_(num_nodes),
      seg_begin_(static_cast<std::size_t>(num_nodes) + 1, 0),
      seg_count_(static_cast<std::size_t>(num_nodes), 0) {}

DynamicGraph::DynamicGraph(const device::Context& ctx,
                           const graph::EdgeList& initial)
    : DynamicGraph(initial.num_nodes) {
  const auto lock = ctx.exclusive();  // see insert_edges
  const graph::EdgeList canon = graph::canonicalize(ctx, initial);
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  const std::size_t m = canon.edges.size();

  std::vector<EdgeId> degree(n, 0);
  device::launch(ctx, m, [&](std::size_t e) {
    std::atomic_ref<EdgeId>(degree[canon.edges[e].u])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<EdgeId>(degree[canon.edges[e].v])
        .fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<EdgeId> cap(n);
  device::transform(ctx, n, cap.data(),
                    [&](std::size_t v) { return capacity_for(degree[v]); });
  seg_begin_[n] = device::exclusive_scan(ctx, cap.data(), n, seg_begin_.data());
  adj_.resize(static_cast<std::size_t>(seg_begin_[n]));

  std::vector<EdgeId> cursor(seg_begin_.begin(), seg_begin_.end() - 1);
  device::launch(ctx, m, [&](std::size_t e) {
    const graph::Edge edge = canon.edges[e];
    const EdgeId slot_u = std::atomic_ref<EdgeId>(cursor[edge.u])
                              .fetch_add(1, std::memory_order_relaxed);
    adj_[slot_u] = edge.v;
    const EdgeId slot_v = std::atomic_ref<EdgeId>(cursor[edge.v])
                              .fetch_add(1, std::memory_order_relaxed);
    adj_[slot_v] = edge.u;
  });
  seg_count_ = std::move(degree);
  num_edges_ = m;
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  if (!graph::edge_valid(u, v, num_nodes_)) return false;
  if (seg_count_[u] > seg_count_[v]) std::swap(u, v);
  const EdgeId begin = seg_begin_[u];
  const EdgeId end = begin + seg_count_[u];
  for (EdgeId i = begin; i < end; ++i) {
    if (adj_[i] == v) return true;
  }
  return false;
}

std::vector<std::uint64_t> DynamicGraph::normalized_batch(
    const device::Context& ctx, const std::vector<graph::Edge>& batch,
    bool keep_present) const {
  const std::size_t b = batch.size();
  std::vector<std::uint64_t> keys(b);
  device::transform(ctx, b, keys.data(), [&](std::size_t i) {
    const graph::Edge e = batch[i];
    if (!graph::edge_valid(e.u, e.v, num_nodes_)) return kInvalidKey;
    return graph::edge_key(e.u, e.v);
  });
  device::sort_keys(ctx, keys.data(), b);
  std::vector<EdgeId> picked(b);
  const std::size_t kept = device::copy_if_index(
      ctx, b,
      [&](std::size_t i) {
        const std::uint64_t k = keys[i];
        if (k == kInvalidKey) return false;
        if (i > 0 && k == keys[i - 1]) return false;  // within-batch duplicate
        return has_edge(static_cast<NodeId>(k >> 32),
                        static_cast<NodeId>(k & 0xffffffffULL)) ==
               keep_present;
      },
      picked.data());
  std::vector<std::uint64_t> out(kept);
  device::gather(ctx, keys.data(), picked.data(), kept, out.data());
  return out;
}

std::size_t DynamicGraph::insert_edges(const device::Context& ctx,
                                       const std::vector<graph::Edge>& batch) {
  if (batch.empty()) return 0;
  // Self-locking: a serving writer races concurrent device-routed View
  // queries on the same context (the pool's dispatch slot and the arena
  // take one driver at a time). Recursive, so callers already holding the
  // driver lock compose.
  const auto lock = ctx.exclusive();
  const auto fresh = normalized_batch(ctx, batch, /*keep_present=*/false);
  const std::size_t c = fresh.size();
  if (c == 0) return 0;

  // Room in the edge log first: everything that can fail for the log
  // happens before the segments change, so a fault never leaves the log
  // behind the store. A regrow copies the prefix into a fresh buffer;
  // snapshots pinned on the old one keep it alive.
  std::shared_ptr<graph::Edge[]> log = log_;
  std::size_t log_capacity = log_capacity_;
  const std::size_t logged = log != nullptr ? log_len_.back() : 0;
  if (log != nullptr) {
    if (logged + c > log_capacity) {
      log_capacity = capacity_for(logged + c);
      log = std::shared_ptr<graph::Edge[]>(new graph::Edge[log_capacity]);
      std::copy_n(log_.get(), logged, log.get());
    }
    if (log_len_.size() == log_len_.capacity()) {
      log_len_.reserve(2 * log_len_.size());
    }
  }

  std::vector<std::uint64_t> dir;
  std::vector<EdgeId> run_start;
  const std::size_t runs = expand_directed_runs(ctx, fresh, dir, run_start);

  // If any segment lacks slack for its run, rebuild the store once with the
  // batch demand folded into the new capacities; appends then always fit.
  const std::size_t overflows = device::reduce(
      ctx, runs, std::size_t{0},
      [&](std::size_t r) -> std::size_t {
        const auto [begin, end] = run_bounds(run_start, runs, 2 * c, r);
        const auto src = static_cast<NodeId>(dir[begin] >> 32);
        const EdgeId room =
            seg_begin_[src + 1] - seg_begin_[src] - seg_count_[src];
        return end - begin > static_cast<std::size_t>(room) ? 1 : 0;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  if (overflows != 0) {
    std::vector<EdgeId> demand(static_cast<std::size_t>(num_nodes_), 0);
    device::launch(ctx, runs, [&](std::size_t r) {
      const auto [begin, end] = run_bounds(run_start, runs, 2 * c, r);
      demand[dir[begin] >> 32] = static_cast<EdgeId>(end - begin);
    });
    compact(ctx, demand.data());
  }

  // One virtual thread per touched segment; runs are disjoint so the kernel
  // is race-free and the append order (sorted by neighbor) deterministic.
  device::launch(ctx, runs, [&](std::size_t r) {
    const auto [begin, end] = run_bounds(run_start, runs, 2 * c, r);
    const auto src = static_cast<NodeId>(dir[begin] >> 32);
    EdgeId cursor = seg_begin_[src] + seg_count_[src];
    for (std::size_t i = begin; i < end; ++i) {
      adj_[cursor++] = static_cast<NodeId>(dir[i] & 0xffffffffULL);
    }
    seg_count_[src] = cursor - seg_begin_[src];
  });
  num_edges_ += c;
  ++epoch_;
  if (log != nullptr) {
    // Past every pinned length (all <= logged): no reader sees these slots.
    // A host loop, not a kernel — the append must not fail.
    for (std::size_t i = 0; i < c; ++i) log[logged + i] = edge_of_key(fresh[i]);
    log_ = std::move(log);
    log_capacity_ = log_capacity;
    log_len_.push_back(logged + c);
  }
  return c;
}

std::size_t DynamicGraph::erase_edges(const device::Context& ctx,
                                      const std::vector<graph::Edge>& batch) {
  if (batch.empty()) return 0;
  const auto lock = ctx.exclusive();  // see insert_edges

  const auto doomed = normalized_batch(ctx, batch, /*keep_present=*/true);
  const std::size_t c = doomed.size();
  if (c == 0) return 0;

  std::vector<std::uint64_t> dir;
  std::vector<EdgeId> run_start;
  const std::size_t runs = expand_directed_runs(ctx, doomed, dir, run_start);

  // One in-place compaction sweep per segment: the run's targets are
  // already sorted (the directed sort orders by dst within a src), so each
  // surviving neighbor costs one binary search — O(deg log k) even when a
  // hub loses its whole adjacency in one batch. Each thread owns one
  // segment, so nothing races.
  device::launch(ctx, runs, [&](std::size_t r) {
    const auto [begin, end] = run_bounds(run_start, runs, 2 * c, r);
    const auto src = static_cast<NodeId>(dir[begin] >> 32);
    const EdgeId seg = seg_begin_[src];
    const EdgeId count = seg_count_[src];
    EdgeId keep = seg;
    for (EdgeId s = seg; s < seg + count; ++s) {
      const std::uint64_t probe = pack_directed(src, adj_[s]);
      if (!std::binary_search(dir.begin() + begin, dir.begin() + end, probe)) {
        adj_[keep++] = adj_[s];
      }
    }
    seg_count_[src] = keep - seg;
  });
  num_edges_ -= c;
  ++epoch_;
  // Positions shift under an erase: the next snapshot() exports a new log.
  log_.reset();
  log_capacity_ = 0;
  log_len_.clear();
  return c;
}

void DynamicGraph::compact(const device::Context& ctx, const EdgeId* demand) {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  std::vector<EdgeId> cap(n);
  device::transform(ctx, n, cap.data(), [&](std::size_t v) {
    return capacity_for(seg_count_[v] + (demand != nullptr ? demand[v] : 0));
  });
  std::vector<EdgeId> new_begin(n + 1);
  new_begin[n] = device::exclusive_scan(ctx, cap.data(), n, new_begin.data());
  std::vector<NodeId> new_adj(static_cast<std::size_t>(new_begin[n]));
  device::launch(ctx, n, [&](std::size_t v) {
    const EdgeId from = seg_begin_[v];
    const EdgeId to = new_begin[v];
    for (EdgeId i = 0; i < seg_count_[v]; ++i) new_adj[to + i] = adj_[from + i];
  });
  seg_begin_ = std::move(new_begin);
  adj_ = std::move(new_adj);
  ++num_compactions_;
}

EdgeSnapshot DynamicGraph::snapshot(const device::Context& ctx) const {
  if (log_ == nullptr) {
    // Failpoint: only an export can fault — snapshots of an existing log
    // stay servable, the property the bounded-staleness mode relies on.
    util::failpoint::maybe_throw(util::failpoint::kSnapshot);
    const auto lock = ctx.exclusive();  // see insert_edges
    const std::size_t n = static_cast<std::size_t>(num_nodes_);
    // The lower endpoint of each edge emits it, so every undirected edge
    // appears exactly once: per-node counts, scan, then a placement kernel.
    std::vector<EdgeId> count(n);
    device::transform(ctx, n, count.data(), [&](std::size_t v) {
      EdgeId c = 0;
      const EdgeId begin = seg_begin_[v];
      for (EdgeId i = begin; i < begin + seg_count_[v]; ++i) {
        if (adj_[i] > static_cast<NodeId>(v)) ++c;
      }
      return c;
    });
    std::vector<EdgeId> offset(n + 1);
    offset[n] = device::exclusive_scan(ctx, count.data(), n, offset.data());
    const auto m = static_cast<std::size_t>(offset[n]);
    const std::size_t capacity = capacity_for(m);
    std::shared_ptr<graph::Edge[]> log(new graph::Edge[capacity]);
    device::launch(ctx, n, [&](std::size_t v) {
      EdgeId w = offset[v];
      const EdgeId begin = seg_begin_[v];
      for (EdgeId i = begin; i < begin + seg_count_[v]; ++i) {
        if (adj_[i] > static_cast<NodeId>(v)) {
          log[w++] = {static_cast<NodeId>(v), adj_[i]};
        }
      }
    });
    log_len_.assign(1, m);
    log_base_ = epoch_;
    log_capacity_ = capacity;
    log_ = std::move(log);
  }
  return EdgeSnapshot(log_, log_len_.back(), num_nodes_);
}

std::optional<std::span<const graph::Edge>> DynamicGraph::inserted_since(
    std::uint64_t epoch) const {
  if (log_ == nullptr || epoch < log_base_ || epoch > epoch_) {
    return std::nullopt;
  }
  const std::size_t from = log_len_[epoch - log_base_];
  return std::span<const graph::Edge>(log_.get() + from,
                                      log_len_.back() - from);
}

}  // namespace emc::dynamic
