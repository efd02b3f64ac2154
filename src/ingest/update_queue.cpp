#include "ingest/update_queue.hpp"

#include <algorithm>

namespace emc::ingest {

UpdateQueue::UpdateQueue(std::size_t bound, Admission admission)
    : ring_(std::max<std::size_t>(1, bound)), admission_(admission) {}

std::size_t UpdateQueue::push(const Update* updates, std::size_t count) {
  if (count == 0) return 0;
  const auto now = Clock::now();
  std::unique_lock<std::mutex> lk(mutex_);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    stats_.submitted++;
    if (closed_) {
      stats_.cancelled++;
      continue;
    }
    if (size_ == ring_.size()) {
      switch (admission_) {
        case Admission::kBlock:
          // Wake the consumer first: it may be idling out a linger window
          // while we hold the only updates that would let it make room.
          not_empty_.notify_one();
          not_full_.wait(lk, [&] { return closed_ || size_ < ring_.size(); });
          if (closed_) {
            stats_.cancelled++;
            continue;
          }
          break;
        case Admission::kReject:
          stats_.rejected++;
          continue;
        case Admission::kShedOldest:
          // Evict the globally oldest update. The ring is one total order
          // (the write path has no per-client lanes), so serve's "oldest of
          // the fattest client" degenerates to plain oldest-first here.
          head_ = (head_ + 1) % ring_.size();
          --size_;
          stats_.shed++;
          break;
      }
    }
    ring_[(head_ + size_) % ring_.size()] = Queued{updates[i], now};
    ++size_;
    ++accepted;
    stats_.accepted++;
    stats_.max_depth = std::max(stats_.max_depth, size_);
  }
  stats_.depth = size_;
  lk.unlock();
  not_empty_.notify_one();
  return accepted;
}

std::size_t UpdateQueue::push(const std::vector<Update>& updates) {
  return push(updates.data(), updates.size());
}

std::size_t UpdateQueue::pop_wait(std::vector<Queued>& out, std::size_t max,
                                  Clock::time_point deadline,
                                  std::optional<std::uint64_t> kick_mark) {
  std::unique_lock<std::mutex> lk(mutex_);
  const std::uint64_t mark = kick_mark.value_or(kicks_);
  not_empty_.wait_until(lk, deadline, [&] {
    return size_ > 0 || closed_ || kicks_ != mark;
  });
  const std::size_t take = std::min(max, size_);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(ring_[head_]));
    head_ = (head_ + 1) % ring_.size();
  }
  size_ -= take;
  stats_.depth = size_;
  lk.unlock();
  if (take > 0) not_full_.notify_all();
  return take;
}

void UpdateQueue::kick() {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    ++kicks_;
  }
  not_empty_.notify_all();
}

std::uint64_t UpdateQueue::kicks() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return kicks_;
}

void UpdateQueue::close() {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool UpdateQueue::closed() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return closed_;
}

std::size_t UpdateQueue::depth() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return size_;
}

UpdateQueue::Stats UpdateQueue::stats() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  Stats s = stats_;
  s.depth = size_;
  return s;
}

}  // namespace emc::ingest
