#include "core/tour_splice.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "device/arena.hpp"
#include "device/primitives.hpp"

namespace emc::core {

namespace {

/// The piece of a run holding a cut's own two half-edges, which leave the
/// tour.
constexpr NodeId kDropped = kNoNode;

/// Tour positions per chunk of a run walk: each chunk finds its first run
/// by one binary search and then walks the runs alongside.
constexpr std::size_t kBlock = 4096;

/// A maximal stretch of old tour positions, up to the next run's start,
/// whose half-edges all belong to one piece (or to a cut: kDropped).
struct Run {
  std::size_t start;
  NodeId piece;
};

/// A stretch of the new tour copied from the old one.
struct Copy {
  std::size_t from;  // old position of its first half-edge
  std::size_t size;
  std::size_t to;    // new position of its first half-edge
};

/// Where the tree's half-edges sit on its tour array.
class TourPositions {
 public:
  TourPositions(const TreeStats& tree, NodeId root) : tree_(tree), root_(root) {}

  /// The down edge into v (v is not the root).
  std::size_t down(NodeId v) const {
    return 2 * (static_cast<std::size_t>(tree_.preorder[v]) - 1) -
           static_cast<std::size_t>(tree_.level[v]) - 1;
  }
  /// The up edge out of v's subtree.
  std::size_t up(NodeId v) const {
    return down(v) + 2 * static_cast<std::size_t>(tree_.subtree_size[v]) - 1;
  }
  /// The id of the tree edge above v; half-edges 2 id (down), 2 id + 1.
  EdgeId edge_of(NodeId v) const {
    return static_cast<EdgeId>(v > root_ ? v - 1 : v);
  }
  NodeId node_of(EdgeId edge) const {
    return static_cast<NodeId>(edge >= root_ ? edge + 1 : edge);
  }

 private:
  const TreeStats& tree_;
  NodeId root_;
};

/// Partitions the old tour [0, h) into runs by one sweep over the cuts in
/// tour order. The cut intervals [down, up] nest, so a stack of the open
/// ones names each position's innermost cut. Ends with a sentinel run at h.
std::vector<Run> cut_runs(const TourPositions& at,
                          std::span<const NodeId> heads, std::size_t h) {
  std::vector<Run> runs;
  const auto emit = [&](std::size_t from, std::size_t to, NodeId piece) {
    if (from < to) runs.push_back({from, piece});
  };
  struct Open {
    NodeId piece;
    std::size_t up;
  };
  std::vector<Open> open{{0, h}};
  std::size_t next = 0;  // the first position no run covers yet
  const auto advance = [&](std::size_t to) {
    while (open.size() > 1 && open.back().up < to) {
      emit(next, open.back().up, open.back().piece);
      emit(open.back().up, open.back().up + 1, kDropped);
      next = open.back().up + 1;
      open.pop_back();
    }
    emit(next, to, open.back().piece);
    next = to;
  };
  for (std::size_t p = 1; p <= heads.size(); ++p) {
    const std::size_t down = at.down(heads[p - 1]);
    advance(down);
    emit(down, down + 1, kDropped);
    next = down + 1;
    open.push_back({static_cast<NodeId>(p), at.up(heads[p - 1])});
  }
  advance(h);
  runs.push_back({h, kDropped});
  return runs;
}

/// Each piece's runs in tour order, CSR over the pieces: the piece's cyclic
/// tour is their concatenation, and `index` is the run's first position in
/// it.
struct PieceRuns {
  std::vector<std::size_t> offset;  // per piece, into the arrays below
  std::vector<std::size_t> start;   // old position
  std::vector<std::size_t> size;
  std::vector<std::size_t> index;

  PieceRuns(const std::vector<Run>& runs, std::size_t pieces)
      : offset(pieces + 1, 0) {
    for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
      if (runs[r].piece != kDropped) ++offset[runs[r].piece + 1];
    }
    for (std::size_t p = 0; p < pieces; ++p) offset[p + 1] += offset[p];
    start.resize(offset[pieces]);
    size.resize(offset[pieces]);
    index.resize(offset[pieces]);
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    std::vector<std::size_t> length(pieces, 0);
    for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
      if (runs[r].piece == kDropped) continue;
      const auto p = static_cast<std::size_t>(runs[r].piece);
      const std::size_t i = fill[p]++;
      start[i] = runs[r].start;
      size[i] = runs[r + 1].start - runs[r].start;
      index[i] = length[p];
      length[p] += size[i];
    }
  }

  std::size_t length(std::size_t p) const {
    const std::size_t last = offset[p + 1];
    return last == offset[p] ? 0 : index[last - 1] + size[last - 1];
  }

  /// The gap in piece p's tour right after old position `position`.
  std::size_t gap_after(std::size_t p, std::size_t position) const {
    const auto first = start.begin() + static_cast<std::ptrdiff_t>(offset[p]);
    const auto last = start.begin() + static_cast<std::ptrdiff_t>(offset[p + 1]);
    const auto i =
        static_cast<std::size_t>(std::upper_bound(first, last, position) -
                                 start.begin()) - 1;
    assert(i >= offset[p] && position < start[i] + size[i]);
    return index[i] + (position + 1 - start[i]);
  }
};

}  // namespace

TreeStats splice_tree(const device::Context& ctx, const TreeStats& tree,
                      NodeId root, std::span<const NodeId> cuts,
                      LinkPieces link) {
  const std::size_t num_nodes = tree.preorder.size();
  assert(num_nodes >= 1);
  const std::size_t h = 2 * (num_nodes - 1);
  const TourPositions at(tree, root);
  const std::size_t pieces = cuts.size() + 1;

  device::Arena::Scope scope(ctx.arena());
  // The old tour array, from preorder, level and size alone, and the new
  // tour's half-edges: every tree edge as before but the cuts' ids, which
  // carry the links once the caller picks them.
  EdgeId* old_tour = scope.get<EdgeId>(h);
  NodeId* edge_src = scope.get<NodeId>(h);
  NodeId* edge_dst = scope.get<NodeId>(h);
  device::launch(ctx, num_nodes, [&](std::size_t i) {
    const auto v = static_cast<NodeId>(i);
    if (v == root) return;
    const std::size_t down = at.down(v);
    const EdgeId e = 2 * at.edge_of(v);
    old_tour[down] = e;
    old_tour[down + 2 * static_cast<std::size_t>(tree.subtree_size[v]) - 1] =
        e + 1;
    edge_src[e] = tree.parent[v];
    edge_dst[e] = v;
    edge_src[e + 1] = v;
    edge_dst[e + 1] = tree.parent[v];
  });

  // The cuts in tour order, and the runs they split the tour into.
  std::vector<NodeId> heads(cuts.begin(), cuts.end());
  std::sort(heads.begin(), heads.end(), [&](NodeId a, NodeId b) {
    return tree.preorder[a] < tree.preorder[b];
  });
  assert(std::adjacent_find(heads.begin(), heads.end()) == heads.end());
  const std::vector<Run> runs = cut_runs(at, heads, h);

  // Each node's piece and each piece's smallest node, by one walk of the
  // runs: a down edge names its node (a cut's own is dropped, and the host
  // labels the cuts and the root).
  NodeId* piece = scope.get<NodeId>(num_nodes);
  NodeId* smallest = scope.get<NodeId>(pieces);
  std::fill(smallest, smallest + pieces, kNodeInf);
  device::launch_blocks(ctx, h, kBlock, [&](std::size_t begin,
                                           std::size_t end) {
    auto r = static_cast<std::size_t>(
        std::upper_bound(runs.begin(), runs.end(), begin,
                         [](std::size_t p, const Run& run) {
                           return p < run.start;
                         }) -
        runs.begin()) - 1;
    NodeId low = kNodeInf;
    const auto flush = [&] {
      if (low != kNodeInf) device::atomic_min(&smallest[runs[r].piece], low);
      low = kNodeInf;
    };
    for (std::size_t p = begin; p < end; ++p) {
      if (p == runs[r + 1].start) {
        flush();
        ++r;
      }
      if (runs[r].piece == kDropped || (old_tour[p] & 1) != 0) continue;
      const NodeId v = at.node_of(old_tour[p] >> 1);
      piece[v] = runs[r].piece;
      low = std::min(low, v);
    }
    flush();
  });
  piece[root] = 0;
  smallest[0] = std::min(smallest[0], root);
  for (std::size_t p = 1; p < pieces; ++p) {
    piece[heads[p - 1]] = static_cast<NodeId>(p);
    smallest[p] = std::min(smallest[p], heads[p - 1]);
  }

  const std::vector<TourLink> links = link(TourPieces{
      heads, {piece, num_nodes}, {smallest, pieces}});
  assert(links.size() + 1 == pieces);

  // The host plan. Each piece's tour is cyclic; `rotation` is where its
  // rerooted tour starts, and each child piece goes in at the gap after its
  // parent node's down edge, counted from that start.
  const PieceRuns piece_runs(runs, pieces);
  const auto gap = [&](std::size_t p, NodeId v) -> std::size_t {
    const NodeId head = p == 0 ? root : heads[p - 1];
    return v == head ? 0 : piece_runs.gap_after(p, at.down(v));
  };
  std::vector<std::size_t> rotation(pieces, 0);
  std::vector<std::size_t> parent_piece(pieces, 0);
  std::vector<std::size_t> offset(pieces, 0);  // in the parent's rotated tour
  for (std::size_t p = 1; p < pieces; ++p) {
    rotation[p] = gap(p, links[p - 1].node);
    parent_piece[p] = static_cast<std::size_t>(piece[links[p - 1].parent]);
    assert(parent_piece[p] != p && piece[links[p - 1].node] == static_cast<NodeId>(p));
  }
  std::vector<std::size_t> child_offset(pieces + 1, 0);
  for (std::size_t p = 1; p < pieces; ++p) {
    const std::size_t q = parent_piece[p];
    const std::size_t length = piece_runs.length(q);
    const std::size_t g = gap(q, links[p - 1].parent);
    offset[p] = length == 0 ? 0 : (g + length - rotation[q]) % length;
    ++child_offset[q + 1];
  }
  for (std::size_t p = 0; p < pieces; ++p) child_offset[p + 1] += child_offset[p];
  std::vector<std::size_t> children(pieces - 1);
  {
    std::vector<std::size_t> fill(child_offset.begin(), child_offset.end() - 1);
    for (std::size_t p = 1; p < pieces; ++p) children[fill[parent_piece[p]]++] = p;
    for (std::size_t q = 0; q < pieces; ++q) {
      std::sort(children.begin() + static_cast<std::ptrdiff_t>(child_offset[q]),
                children.begin() + static_cast<std::ptrdiff_t>(child_offset[q + 1]),
                [&](std::size_t a, std::size_t b) {
                  return std::pair(offset[a], a) < std::pair(offset[b], b);
                });
    }
  }

  // Lay the new tour out from piece 0 down, with an explicit stack (a
  // chain of pieces may be as deep as there are cuts).
  std::vector<Copy> copies;
  std::vector<std::pair<std::size_t, EdgeId>> fresh;  // position, half-edge
  std::size_t out = 0;
  const auto copy_linear = [&](std::size_t p, std::size_t from,
                               std::size_t to) {
    const auto first = piece_runs.index.begin() +
                       static_cast<std::ptrdiff_t>(piece_runs.offset[p]);
    const auto last = piece_runs.index.begin() +
                      static_cast<std::ptrdiff_t>(piece_runs.offset[p + 1]);
    auto r = static_cast<std::size_t>(
                 std::upper_bound(first, last, from) -
                 piece_runs.index.begin()) - 1;
    while (from < to) {
      const std::size_t skip = from - piece_runs.index[r];
      const std::size_t take = std::min(piece_runs.size[r] - skip, to - from);
      copies.push_back({piece_runs.start[r] + skip, take, out});
      out += take;
      from += take;
      ++r;
    }
  };
  // Piece p's rotated tour from offset `from` to offset `to`.
  const auto copy_rotated = [&](std::size_t p, std::size_t from,
                                std::size_t to) {
    const std::size_t length = piece_runs.length(p);
    const std::size_t a = rotation[p] + from;
    const std::size_t b = rotation[p] + to;
    if (a < std::min(b, length)) copy_linear(p, a, std::min(b, length));
    if (b > length) copy_linear(p, std::max(a, length) - length, b - length);
  };
  struct Frame {
    std::size_t piece;
    std::size_t next_child;
    std::size_t done;  // offset laid out so far
  };
  std::vector<Frame> stack{{0, child_offset[0], 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    if (f.next_child < child_offset[f.piece + 1]) {
      const std::size_t c = children[f.next_child];
      copy_rotated(f.piece, f.done, offset[c]);
      stack.back().next_child = f.next_child + 1;
      stack.back().done = offset[c];
      fresh.push_back({out++, 2 * at.edge_of(heads[c - 1])});
      stack.push_back({c, child_offset[c], 0});
    } else {
      copy_rotated(f.piece, f.done, piece_runs.length(f.piece));
      stack.pop_back();
      if (f.piece != 0) {
        fresh.push_back({out++, 2 * at.edge_of(heads[f.piece - 1]) + 1});
      }
    }
  }
  assert(out == h);

  // The new tour: the links' half-edges, then the copied runs in one
  // chunked pass over the old positions.
  EdgeId* rank = scope.get<EdgeId>(h);
  EdgeId* new_tour = scope.get<EdgeId>(h);
  for (std::size_t p = 1; p < pieces; ++p) {
    const EdgeId e = 2 * at.edge_of(heads[p - 1]);
    edge_src[e] = links[p - 1].parent;
    edge_dst[e] = links[p - 1].node;
    edge_src[e + 1] = links[p - 1].node;
    edge_dst[e + 1] = links[p - 1].parent;
  }
  std::sort(copies.begin(), copies.end(),
            [](const Copy& a, const Copy& b) { return a.from < b.from; });
  device::launch_blocks(ctx, copies.empty() ? 0 : h, kBlock,
                        [&](std::size_t begin, std::size_t end) {
    std::size_t s = static_cast<std::size_t>(
        std::upper_bound(copies.begin(), copies.end(), begin,
                         [](std::size_t p, const Copy& c) {
                           return p < c.from;
                         }) -
        copies.begin());
    s = s == 0 ? 0 : s - 1;
    for (std::size_t p = begin; p < end; ++p) {
      while (s + 1 < copies.size() && copies[s + 1].from <= p) ++s;
      const Copy& c = copies[s];
      if (p < c.from || p >= c.from + c.size) continue;  // a cut's half-edge
      const auto r = static_cast<EdgeId>(c.to + (p - c.from));
      new_tour[r] = old_tour[p];
      rank[old_tour[p]] = r;
    }
  });
  for (const auto& [r, e] : fresh) {
    new_tour[r] = e;
    rank[e] = static_cast<EdgeId>(r);
  }
  return compute_tree_stats(
      ctx, TourArrays{static_cast<NodeId>(num_nodes), root, h, edge_src,
                      edge_dst, rank, new_tour});
}

}  // namespace emc::core
