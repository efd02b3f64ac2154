#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <utility>

#include "device/primitives.hpp"
#include "util/bits.hpp"

namespace emc::dynamic {

namespace {

/// `recent_` folds into `keys_` once it holds more than 1/kFoldRatio of
/// it: an insert then merges at most |keys_| / kFoldRatio keys on the host,
/// and the O(|keys_|) fold runs once per that many inserted keys.
constexpr std::size_t kFoldRatio = 64;

/// Log slack: a quarter of the occupancy, at least 4 slots, so repeated
/// small batches amortize to O(1) copies per appended edge.
std::size_t capacity_for(std::size_t need) {
  return need + std::max<std::size_t>(4, need / 4);
}

/// An uninitialized log buffer.
std::shared_ptr<graph::Edge[]> new_log(std::size_t capacity) {
  return std::shared_ptr<graph::Edge[]>(new graph::Edge[capacity]);
}

bool contains(const std::vector<std::uint64_t>& sorted, std::uint64_t key) {
  return std::binary_search(sorted.begin(), sorted.end(), key);
}

/// Membership in an erase batch, for the filters that drop it from the log
/// and the keys: a bitmap over a hash of the doomed keys rejects almost
/// every surviving edge with one bit test, so only the few that hit a set
/// bit pay the binary search.
class DoomedSet {
 public:
  explicit DoomedSet(const std::vector<std::uint64_t>& doomed)
      : doomed_(doomed) {
    // 64 bits per key: a survivor passes the bit test with p <= 1/64.
    const int bits_log2 =
        util::ceil_log2(std::max<std::size_t>(64, 64 * doomed.size()));
    shift_ = 64 - bits_log2;
    bits_.assign(std::size_t{1} << (bits_log2 - 6), 0);
    for (const std::uint64_t key : doomed) {
      const std::uint64_t h = slot(key);
      bits_[h >> 6] |= std::uint64_t{1} << (h & 63);
    }
  }

  bool contains(std::uint64_t key) const {
    const std::uint64_t h = slot(key);
    return ((bits_[h >> 6] >> (h & 63)) & 1) != 0 &&
           dynamic::contains(doomed_, key);
  }

 private:
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  std::uint64_t slot(std::uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ULL) >> shift_;
  }

  const std::vector<std::uint64_t>& doomed_;
  std::vector<std::uint64_t> bits_;
  int shift_ = 0;
};

/// Removes from the sorted `run` every key of the sorted `doomed` it holds,
/// in place: one binary search per doomed key, and the survivors between
/// two hits move down by one memmove. Allocates nothing and launches
/// nothing, so it cannot fail.
void remove_sorted(std::vector<std::uint64_t>& run,
                   const std::vector<std::uint64_t>& doomed) {
  auto out = run.begin();
  auto from = run.begin();
  for (const std::uint64_t key : doomed) {
    const auto at = std::lower_bound(from, run.end(), key);
    if (at == run.end() || *at != key) continue;
    out = out == from ? at : std::move(from, at, out);
    from = at + 1;
  }
  if (out != from) run.erase(std::move(from, run.end(), out), run.end());
}

/// Merges two disjoint sorted key runs into `out` (room for both): every
/// key's slot is its index plus its rank in the other run. `small` is
/// placed by one binary search per key, `big` by blocks that each search
/// once and then walk `small` alongside.
void merge_disjoint(const device::Context& ctx,
                    const std::vector<std::uint64_t>& big,
                    const std::vector<std::uint64_t>& small,
                    std::uint64_t* out) {
  device::launch(ctx, small.size(), [&](std::size_t i) {
    const auto rank = std::lower_bound(big.begin(), big.end(), small[i]);
    out[i + static_cast<std::size_t>(rank - big.begin())] = small[i];
  });
  constexpr std::size_t kBlock = 4096;
  device::launch_blocks(ctx, big.size(), kBlock, [&](std::size_t begin,
                                                     std::size_t end) {
    auto rank = static_cast<std::size_t>(
        std::lower_bound(small.begin(), small.end(), big[begin]) -
        small.begin());
    for (std::size_t j = begin; j < end; ++j) {
      while (rank < small.size() && small[rank] < big[j]) ++rank;
      out[j + rank] = big[j];
    }
  });
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : num_nodes_(num_nodes),
      log_(new_log(capacity_for(0))),
      log_capacity_(capacity_for(0)),
      log_len_{0} {}

DynamicGraph::DynamicGraph(const device::Context& ctx,
                           const graph::EdgeList& initial)
    : num_nodes_(initial.num_nodes) {
  const auto lock = ctx.exclusive();  // see insert_edges
  keys_ = graph::canonical_keys(ctx, initial);
  const std::size_t m = keys_.size();
  log_capacity_ = capacity_for(m);
  log_ = new_log(log_capacity_);
  device::transform(ctx, m, log_.get(), [&](std::size_t i) {
    return graph::edge_of_key(keys_[i]);
  });
  log_len_.assign(1, m);
}

bool DynamicGraph::has_key(std::uint64_t key) const {
  return contains(keys_, key) || contains(recent_, key);
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  return graph::edge_valid(u, v, num_nodes_) && has_key(graph::edge_key(u, v));
}

std::vector<std::uint64_t> DynamicGraph::normalized_batch(
    const device::Context& ctx, const std::vector<graph::Edge>& batch,
    bool keep_present) const {
  const std::vector<std::uint64_t> keys =
      graph::canonical_keys(ctx, {num_nodes_, batch});
  std::vector<std::uint64_t> out(keys.size());
  out.resize(device::copy_if(
      ctx, keys.data(), keys.size(),
      [&](std::size_t i) { return has_key(keys[i]) == keep_present; },
      out.data()));
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

  // Everything that can fail runs first, into new buffers. Room in the log:
  // a regrow copies the prefix into a fresh buffer, and snapshots pinned on
  // the old one keep it alive.
  const std::size_t logged = num_edges();
  std::shared_ptr<graph::Edge[]> log = log_;
  std::size_t log_capacity = log_capacity_;
  if (logged + c > log_capacity) {
    log_capacity = capacity_for(logged + c);
    log = new_log(log_capacity);
    std::copy_n(log_.get(), logged, log.get());
  }
  if (log_len_.size() == log_len_.capacity()) {
    log_len_.reserve(2 * log_len_.size());
  }
  std::vector<std::uint64_t> recent(recent_.size() + c);
  std::merge(recent_.begin(), recent_.end(), fresh.begin(), fresh.end(),
             recent.begin());
  std::vector<std::uint64_t> keys;
  const bool fold = recent.size() * kFoldRatio > keys_.size();
  if (fold) {
    keys.resize(keys_.size() + recent.size());
    merge_disjoint(ctx, keys_, recent, keys.data());
    recent = {};
  }

  // Commit: swaps and a host append past every pinned length, none of
  // which can fail.
  if (fold) keys_.swap(keys);
  recent_.swap(recent);
  for (std::size_t i = 0; i < c; ++i) {
    log[logged + i] = graph::edge_of_key(fresh[i]);
  }
  log_ = std::move(log);
  log_capacity_ = log_capacity;
  log_len_.push_back(logged + c);
  ++epoch_;
  return c;
}

std::size_t DynamicGraph::erase_edges(const device::Context& ctx,
                                      const std::vector<graph::Edge>& batch) {
  if (batch.empty()) return 0;
  const auto lock = ctx.exclusive();  // see insert_edges
  const auto doomed = normalized_batch(ctx, batch, /*keep_present=*/true);
  const std::size_t c = doomed.size();
  if (c == 0) return 0;

  // Everything that can fail runs first: the new log, by one
  // order-preserving filter of the old one that also records the old
  // positions it drops. Positions shift, so it starts a new base epoch;
  // snapshots pinned on the old log keep it.
  const DoomedSet gone(doomed);
  const std::size_t kept = num_edges() - c;
  const std::size_t log_capacity = capacity_for(kept);
  std::shared_ptr<graph::Edge[]> log = new_log(log_capacity);
  std::vector<EdgeId> erased(c);
  const graph::Edge* old = log_.get();
  graph::Edge* out = log.get();
  device::compact_split(
      ctx, num_edges(),
      [&](std::size_t e) {
        return !gone.contains(graph::edge_key(old[e].u, old[e].v));
      },
      [&](std::size_t slot, std::size_t e) { out[slot] = old[e]; },
      [&](std::size_t slot, std::size_t e) {
        erased[slot] = static_cast<EdgeId>(e);
      });
  std::vector<std::size_t> log_len{kept};

  // Commit: swaps and the in-place key removal, none of which can fail.
  log_.swap(log);
  log_capacity_ = log_capacity;
  log_len_.swap(log_len);
  erased_.swap(erased);
  remove_sorted(keys_, doomed);
  remove_sorted(recent_, doomed);
  log_base_ = ++epoch_;
  return c;
}

EdgeSnapshot DynamicGraph::snapshot() const {
  return EdgeSnapshot(log_, num_edges(), num_nodes_);
}

std::optional<std::span<const EdgeId>> DynamicGraph::erased_since(
    std::uint64_t epoch) const {
  // log_base_ is the epoch the last erase produced, and nothing came after
  // it iff the epoch is still there.
  if (erased_.empty() || epoch + 1 != log_base_ || epoch_ != log_base_) {
    return std::nullopt;
  }
  return std::span<const EdgeId>(erased_);
}

std::optional<std::span<const graph::Edge>> DynamicGraph::inserted_since(
    std::uint64_t epoch) const {
  if (epoch < log_base_ || epoch > epoch_) return std::nullopt;
  const std::size_t from = log_len_[epoch - log_base_];
  return std::span<const graph::Edge>(log_.get() + from, num_edges() - from);
}

}  // namespace emc::dynamic
