// Sparse table: O(n log n) preprocessing, O(1) idempotent range queries.
//
// The constant-query-time alternative to the segment tree. Tarjan-Vishkin's
// low/high builds one over its n/64 block folds (bridges/tv_detail.cpp);
// tests cross-check it against the segment tree.
#pragma once

#include <cstddef>
#include <vector>

#include "device/context.hpp"
#include "device/primitives.hpp"
#include "util/bits.hpp"

namespace emc::rmq {

template <typename T, typename Op>
class SparseTable {
 public:
  SparseTable(const device::Context& ctx, const std::vector<T>& values,
              Op op = Op{})
      : SparseTable(ctx, values.data(), values.size(), op) {}

  /// Pointer form, so level 0 can be seeded straight from arena scratch.
  SparseTable(const device::Context& ctx, const T* values, std::size_t n,
              Op op = Op{})
      : op_(op), n_(n) {
    if (n_ == 0) return;
    const int levels = util::floor_log2(n_) + 1;
    table_.resize(levels);
    table_[0].assign(values, values + n_);
    for (int k = 1; k < levels; ++k) {
      const std::size_t span = std::size_t{1} << k;
      const std::size_t count = n_ - span + 1;
      table_[k].resize(count);
      const auto& prev = table_[k - 1];
      auto& cur = table_[k];
      device::launch(ctx, count, [&, span](std::size_t i) {
        cur[i] = op_(prev[i], prev[i + span / 2]);
      });
    }
  }

  std::size_t size() const { return n_; }

  /// Fold over the inclusive range [lo, hi]. Requires lo <= hi < size.
  T query(std::size_t lo, std::size_t hi) const {
    const int k = util::floor_log2(hi - lo + 1);
    const std::size_t span = std::size_t{1} << k;
    return op_(table_[k][lo], table_[k][hi + 1 - span]);
  }

 private:
  Op op_;
  std::size_t n_ = 0;
  std::vector<std::vector<T>> table_;
};

}  // namespace emc::rmq
