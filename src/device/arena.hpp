// Reusable scratch arena — the device-memory pool of the simulation.
//
// Every primitive (reduce partials, scan chunk states, sort histograms and
// double buffers) used to allocate fresh std::vector scratch per call; on a
// real GPU that is a cudaMalloc in the middle of a pipeline, exactly what
// tuned libraries avoid by pooling temporary storage. The arena hands out
// typed, cacheline-aligned slots with bump-pointer cost, and scopes restore
// the cursor on exit so back-to-back calls reuse the same bytes. Once the
// high-water mark stops growing, steady state performs zero allocations.
//
// Discipline (stack-shaped, matching nested primitive calls):
//   Arena::Scope scope(ctx.arena());     // open one scope per routine
//   T* slot = scope.get<T>(n);           // uninitialized, valid until the
//                                        // scope closes
// Nested routines open their own scopes; their slots die before the parent
// allocates again, so parent slots are never invalidated. The arena is not
// thread-safe: like the pool, a Context is driven by one host thread (kernel
// code must never touch the arena).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/failpoint.hpp"

namespace emc::device {

class Arena {
 public:
  /// Cacheline alignment: distinct slots never share a line, so per-chunk
  /// scratch (partials, chunk states) cannot false-share.
  static constexpr std::size_t kAlign = 64;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  class Scope {
   public:
    explicit Scope(Arena& arena)
        : arena_(arena),
          saved_block_(arena.active_),
          saved_used_(arena.blocks_.empty()
                          ? 0
                          : arena.blocks_[arena.active_].used) {
      ++arena_.depth_;
    }

    ~Scope() {
      for (std::size_t b = saved_block_ + 1; b < arena_.blocks_.size(); ++b) {
        arena_.blocks_[b].used = 0;
      }
      if (!arena_.blocks_.empty()) {
        arena_.blocks_[saved_block_].used = saved_used_;
      }
      arena_.active_ = saved_block_;
      if (--arena_.depth_ == 0) arena_.consolidate();
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    template <typename T>
    T* get(std::size_t count) {
      return arena_.get<T>(count);
    }

   private:
    Arena& arena_;
    std::size_t saved_block_;
    std::size_t saved_used_;
  };

  /// Returns an uninitialized slot for `count` objects of T, valid until the
  /// innermost open Scope closes.
  template <typename T>
  T* get(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena slots hold plain scratch data");
    static_assert(alignof(T) <= kAlign);
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Number of backing-store allocations performed so far. Stable across
  /// repeated identically-sized call sequences once warmed up — the property
  /// the steady-state tests pin down.
  std::size_t block_allocations() const { return block_allocations_; }

  /// Total bytes of backing store currently held.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.capacity;
    return total;
  }

  /// Releases all backing store (no scope may be open).
  void release() {
    blocks_.clear();
    active_ = 0;
  }

 private:
  struct Deleter {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t(kAlign));
    }
  };

  struct Block {
    std::unique_ptr<std::byte[], Deleter> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kMinBlock = std::size_t{1} << 16;

  static std::size_t round_up(std::size_t bytes) {
    return (bytes + (kAlign - 1)) & ~(kAlign - 1);
  }

  void* allocate(std::size_t bytes) {
    bytes = round_up(bytes);
    // Advance the cursor to the first block from `active_` on with room.
    // Blocks past the cursor are always empty (scopes reset them).
    while (active_ < blocks_.size() &&
           blocks_[active_].used + bytes > blocks_[active_].capacity) {
      ++active_;
    }
    if (active_ == blocks_.size()) {
      const std::size_t grown =
          std::max({bytes, kMinBlock, 2 * capacity()});
      blocks_.push_back(make_block(grown));
    }
    Block& block = blocks_[active_];
    void* slot = block.data.get() + block.used;
    block.used += bytes;
    return slot;
  }

  Block make_block(std::size_t bytes) {
    // Failpoint: simulated device OOM at the backing-store chokepoint. Bump
    // allocations from warm blocks stay fault-free, matching a real pool
    // (only growth talks to the driver).
    if (util::failpoint::should_fail(util::failpoint::kArenaAlloc)) {
      throw std::bad_alloc{};
    }
    Block block;
    block.data.reset(static_cast<std::byte*>(
        ::operator new[](bytes, std::align_val_t(kAlign))));
    block.capacity = bytes;
    ++block_allocations_;
    return block;
  }

  /// Called when the outermost scope closes: collapse a fragmented block
  /// chain into one block large enough for the whole previous cycle, so the
  /// next cycle bump-allocates from a single block and never mallocs.
  /// Runs inside ~Scope, so it must not throw: when the allocation fails
  /// the arena is left empty and regrows on its next use.
  void consolidate() noexcept {
    if (blocks_.size() <= 1) return;
    const std::size_t total = capacity();
    blocks_.clear();  // keeps the vector's storage: push_back cannot throw
    active_ = 0;
    try {
      blocks_.push_back(make_block(total));
    } catch (const std::bad_alloc&) {
    }
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  int depth_ = 0;
  std::size_t block_allocations_ = 0;
};

}  // namespace emc::device
