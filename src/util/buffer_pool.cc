#include "util/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace car::util {

namespace {

/// log2 of a power-of-two capacity (the freelist index).
std::size_t class_index(std::size_t capacity) noexcept {
  return static_cast<std::size_t>(std::bit_width(capacity) - 1);
}

}  // namespace

std::size_t BufferPool::class_bytes(std::size_t n) noexcept {
  return std::bit_ceil(std::max(n, kMinClassBytes));
}

std::vector<std::uint8_t> BufferPool::checkout_locked(std::size_t n) {
  const std::size_t capacity = class_bytes(n);
  auto& list = free_[class_index(capacity)];
  std::vector<std::uint8_t> buf;
  if (!list.empty()) {
    buf = std::move(list.back());
    list.pop_back();
    ++stats_.freelist_hits;
    stats_.pooled_bytes -= capacity;
  } else {
    buf.reserve(capacity);
  }
  buf.resize(n);
  return buf;
}

std::vector<std::uint8_t> BufferPool::take(std::size_t n) {
  if (n == 0) return {};
  const std::size_t capacity = class_bytes(n);
  MutexLock lock(mu_);
  ++stats_.takes;
  auto buf = checkout_locked(n);
  stats_.taken_outstanding_bytes += capacity;
  stats_.high_water_bytes =
      std::max(stats_.high_water_bytes, stats_.taken_outstanding_bytes);
  return buf;
}

void BufferPool::recycle(std::vector<std::uint8_t>&& buf) {
  std::vector<std::uint8_t> victim = std::move(buf);
  if (victim.capacity() < kMinClassBytes) return;  // not worth parking
  // Park by the largest power of two the capacity can serve: a future
  // checkout of that class is guaranteed to fit without reallocating.
  const std::size_t capacity = std::bit_floor(victim.capacity());
  MutexLock lock(mu_);
  ++stats_.recycles;
  // Credit the taken capacity, saturating: recycle() also accepts foreign
  // vectors that were never charged to it.
  stats_.taken_outstanding_bytes -=
      std::min<std::uint64_t>(stats_.taken_outstanding_bytes, capacity);
  stats_.pooled_bytes += capacity;
  free_[class_index(capacity)].push_back(std::move(victim));
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::trim() {
  MutexLock lock(mu_);
  for (auto& list : free_) list.clear();
  stats_.pooled_bytes = 0;
}

}  // namespace car::util
