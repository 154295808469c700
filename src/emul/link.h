// Serial link emulation for the in-process cluster emulator.
//
// A SerialLink models a store-and-forward network link of a fixed base rate.
// Each transmission *reserves* link occupancy on the owning cluster's virtual
// timeline (emul/clock.h), so transfers through a shared (e.g.
// oversubscribed rack) link queue behind each other in the order the timing
// pass commits them.  Reservations never block: the caller supplies the
// earliest start time and advances the clock to the returned finish time.  A
// multi-hop transfer pipelines across its links: it completes when the
// slowest hop drains, not after the sum of hops.
//
// Fault windows (inject/): a link may carry *rate windows* — intervals
// during which its effective rate is scaled by a factor (0 = blackout,
// 0.5 = half speed).  Reservations integrate the piecewise rate profile, so
// a transfer that straddles a blackout stalls until the window closes.
// Overlapping windows multiply.
#pragma once

#include <cstdint>
#include <vector>

#include "util/attributes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace car::emul {

class SerialLink {
 public:
  /// rate in bytes/second; must be positive.
  explicit SerialLink(double bytes_per_second);

  /// Scale the link's rate by `factor` during [start, end) timeline seconds.
  /// factor == 0 blacks the link out for the window; factors of overlapping
  /// windows multiply.  Requires 0 <= start < end, both finite, and
  /// factor >= 0 (CheckError otherwise).  Thread-safe.
  void add_rate_window(double start, double end, double factor)
      CAR_EXCLUDES(mu_) CAR_BOUNDARY;

  /// Effective rate at timeline second `t` (base rate times the factors of
  /// every window containing `t`).
  [[nodiscard]] double rate_at(double t) const CAR_EXCLUDES(mu_) CAR_HOT;

  /// Reserve link occupancy for `bytes`, starting no earlier than timeline
  /// second `start` and no earlier than the link is free.  Returns the
  /// timeline second at which the last byte leaves the link, honouring any
  /// rate windows.  Does not block; thread-safe.
  double reserve(double start, std::uint64_t bytes) CAR_EXCLUDES(mu_)
      CAR_BOUNDARY CAR_HOT;

  /// Page-wise reservation under a single lock acquisition: exactly the
  /// sequence reserve(start, page) for each page_bytes-sized page of
  /// `bytes`, returning the last page's finish (== `start` when bytes is 0,
  /// matching a zero-iteration paging loop).  Bit-identical to the caller
  /// paging by hand — the per-page math is the same code — but one
  /// lock/unlock instead of ceil(bytes / page_bytes).  LinkPath::reserve and
  /// the arena replay (emul/cluster.cc) reserve through this; every timing
  /// pass commits reservations in one serialised order, so batching a
  /// transfer's pages cannot reorder them against another transfer's.
  double reserve_pages(double start, std::uint64_t bytes,
                       std::uint64_t page_bytes) CAR_EXCLUDES(mu_)
      CAR_BOUNDARY CAR_HOT;

  /// Finish time reserve(start, bytes) *would* return right now, without
  /// committing anything.  Thread-safe.
  [[nodiscard]] double preview(double start, std::uint64_t bytes) const
      CAR_EXCLUDES(mu_) CAR_BOUNDARY CAR_HOT;

  /// Pure timing helper for shadow (what-if) reservations: the finish time
  /// of `bytes` entering the link no earlier than `start` on a link that is
  /// busy until `busy_until`, honouring rate windows.  Used by LinkPath's
  /// preview; does not touch the link's own occupancy.
  [[nodiscard]] double drain_from(double busy_until, double start,
                                  std::uint64_t bytes) const CAR_EXCLUDES(mu_)
      CAR_HOT;

  [[nodiscard]] double rate() const noexcept { return rate_; }

  /// Timeline second at which the link is next free (for shadow previews).
  [[nodiscard]] double next_free() const CAR_EXCLUDES(mu_);

  /// Total bytes ever reserved on this link (for accounting/tests).
  [[nodiscard]] std::uint64_t bytes_transmitted() const noexcept
      CAR_EXCLUDES(mu_);

 private:
  struct RateWindow {
    double start = 0.0;
    double end = 0.0;
    double factor = 1.0;
  };

  [[nodiscard]] double drain_locked(double begin, std::uint64_t bytes) const
      CAR_REQUIRES(mu_);

  double rate_;
  mutable util::Mutex mu_;
  double next_free_ CAR_GUARDED_BY(mu_) = 0.0;  // timeline seconds
  std::uint64_t total_bytes_ CAR_GUARDED_BY(mu_) = 0;
  std::vector<RateWindow> windows_ CAR_GUARDED_BY(mu_);
};

/// The ordered hop list of one transfer path (src access link, core links
/// when crossing racks, dst access link).  An empty path is a loopback:
/// reservations are no-ops completing instantly.  Every hop of a transfer
/// queues from the same start, so the hops pipeline: the transfer finishes
/// when the slowest hop drains, not after the sum of hops.  reserve/preview
/// charge each hop page by page; no other flow's pages land in between
/// (every timing pass commits whole transfers in one serialised order), so
/// paging only fixes the floating-point sequence each hop accumulates, and
/// page_bytes stays part of the modelled result.
class LinkPath {
 public:
  /// Longest physical path the topology can produce: src access link, up to
  /// two core hops, dst access link.  Cluster::path builds every LinkPath;
  /// the constructor enforces the bound so preview() can shadow hop state on
  /// the stack instead of allocating per call.
  static constexpr std::size_t kMaxHops = 4;

  LinkPath() = default;
  explicit LinkPath(std::vector<SerialLink*> hops);

  /// Commit page-wise reservations on every hop starting no earlier than
  /// `start` (SerialLink::reserve_pages per hop); returns the finish time of
  /// the last page on the slowest hop, or `start` for zero bytes.
  double reserve(double start, std::uint64_t bytes, std::uint64_t page_bytes)
      CAR_BOUNDARY CAR_HOT;

  /// Finish time reserve would return right now, committing nothing.  Exact
  /// only while no concurrent reservations land on the hops (the
  /// fault-injection runtime is single-threaded, which is the point).
  [[nodiscard]] double preview(double start, std::uint64_t bytes,
                               std::uint64_t page_bytes) const CAR_BOUNDARY
      CAR_HOT;

  [[nodiscard]] bool loopback() const noexcept { return hops_.empty(); }
  [[nodiscard]] const std::vector<SerialLink*>& hops() const noexcept {
    return hops_;
  }

 private:
  std::vector<SerialLink*> hops_;
};

}  // namespace car::emul
