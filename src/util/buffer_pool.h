// Pooled byte buffers for the emulator's data plane.
//
// Executing a recovery plan used to allocate a fresh std::vector for every
// step output — at slice granularity (recovery/plan_arena.h) one malloc
// per slice, dominating the data plane once the GF kernels run at tens of
// GB/s.  BufferPool recycles buffers through power-of-two size classes:
// take(n) checks out a buffer that leaves the pool's custody (a store
// buffer parked in a node's slot for the rest of the run), and recycle(buf)
// parks its capacity again once the owner is done (the last slot holding
// it lets go).  Nothing stages through the pool: transfers share buffers
// and computes write their output in place (emul/cluster.h).
//
// take() charges the class capacity to taken_outstanding_bytes and
// recycle() credits it back; high_water_bytes is the peak of that live
// pool-served capacity over the run.  recycle() accepts foreign buffers
// that were never take()n, so the counter is credited with saturation at
// zero rather than asserted exact.
//
// Thread-safe; a single mutex guards the freelists and stats (checkout is
// rare next to the memcpy/GF work done on the buffers themselves).  The
// lock discipline is annotated for Clang's thread-safety analysis: every
// member behind mu_ is CAR_GUARDED_BY it, so an unguarded access is a
// compile error under -Wthread-safety (see util/thread_annotations.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/attributes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace car::util {

class BufferPool {
 public:
  struct Stats {
    std::size_t takes = 0;          // buffers checked out
    std::size_t freelist_hits = 0;  // checkouts served without an allocation
    std::size_t recycles = 0;       // buffers parked back
    std::uint64_t taken_outstanding_bytes = 0;  // live take()n capacity
    /// Peak of taken_outstanding_bytes over the run.
    std::uint64_t high_water_bytes = 0;
    std::uint64_t pooled_bytes = 0;  // idle capacity in the freelists
  };

  /// Requests below this round up to one minimum-sized class, so tiny
  /// slices do not fragment the freelists.
  static constexpr std::size_t kMinClassBytes = 1024;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Check out a buffer of exactly n bytes (n == 0 returns an empty
  /// vector and counts nothing).  Reuses pooled capacity; the class
  /// capacity is charged to taken_outstanding_bytes (and thereby
  /// high_water_bytes) until recycle()d.  The buffer belongs to the caller
  /// until then (or forever).  Contents are unspecified.
  [[nodiscard]] std::vector<std::uint8_t> take(std::size_t n)
      CAR_EXCLUDES(mu_) CAR_BOUNDARY;

  /// Park a buffer's capacity for reuse and credit taken_outstanding_bytes
  /// (saturating at zero: foreign vectors that were never take()n are
  /// accepted too).  Buffers smaller than the minimum class are dropped.
  void recycle(std::vector<std::uint8_t>&& buf) CAR_EXCLUDES(mu_)
      CAR_BOUNDARY;

  [[nodiscard]] Stats stats() const CAR_EXCLUDES(mu_);

  /// Drop all idle pooled capacity (freelists), keeping stats counters.
  void trim() CAR_EXCLUDES(mu_);

  /// The power-of-two capacity class serving a request of n bytes.
  [[nodiscard]] static std::size_t class_bytes(std::size_t n) noexcept;

 private:
  /// Pop a freelist buffer for the class of n, or allocate one.  Returns it
  /// resized to n.
  std::vector<std::uint8_t> checkout_locked(std::size_t n) CAR_REQUIRES(mu_);

  mutable Mutex mu_;
  // Freelists indexed by log2(class capacity); 64 covers every size_t class.
  std::array<std::vector<std::vector<std::uint8_t>>, 64> free_
      CAR_GUARDED_BY(mu_);
  Stats stats_ CAR_GUARDED_BY(mu_);
};

}  // namespace car::util
