// Link emulation for the in-process cluster emulator.
//
// A link models a store-and-forward network link of a fixed base rate.  Each
// transmission *reserves* link occupancy on the owning cluster's virtual
// timeline (emul/clock.h), so transfers through a shared (e.g.
// oversubscribed rack) link queue behind each other in the order the timing
// pass commits them.  Reservations never block: the caller supplies the
// earliest start time and advances the clock to the returned finish time.  A
// multi-hop transfer pipelines across its links: it completes when the
// slowest hop drains, not after the sum of hops.
//
// Every link of one cluster is a plain value in one LinkTable, addressed by
// LinkId.  The table takes no lock: links are reserved by the one step
// engine (emul/step_core.h), on one thread, whichever executor drives it
// (the fault-free replay behind Cluster::execute and execute_arena, or the
// inject BatchDriver).
//
// Fault windows (inject/): a link may carry *rate windows* — intervals
// during which its effective rate is scaled by a finite factor (0 =
// blackout, 0.5 = half speed).  Reservations integrate the piecewise rate
// profile, so a transfer that straddles a blackout stalls until the window
// closes.  Overlapping windows multiply.  Windows live outside the per-link
// hot values: a link without one drains at its base rate on a fast path.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "util/attributes.h"

namespace car::emul {

using LinkId = std::uint32_t;

/// Longest physical path the topology can produce: src access link, up to
/// two core hops, dst access link.
inline constexpr std::size_t kMaxHops = 4;

class LinkTable {
 public:
  /// Append a link of `bytes_per_second` (must be positive, CheckError
  /// otherwise) and return its id.  Ids are dense, in append order.
  LinkId add(double bytes_per_second) CAR_BOUNDARY;

  [[nodiscard]] std::size_t size() const noexcept { return links_.size(); }

  /// Scale `link`'s rate by `factor` during [start, end) timeline seconds.
  /// factor == 0 blacks the link out for the window; factors of overlapping
  /// windows multiply.  Requires a valid link, 0 <= start < end, both
  /// finite, and a finite factor >= 0 (CheckError otherwise).
  void add_rate_window(LinkId link, double start, double end, double factor)
      CAR_BOUNDARY;

  /// Effective rate of `link` at timeline second `t` (base rate times the
  /// factors of every window containing `t`).
  [[nodiscard]] double rate_at(LinkId link, double t) const;

  /// Reserve `link` page by page: for each page_bytes-sized page of `bytes`,
  /// the page starts no earlier than `start` and no earlier than the link is
  /// free, and drains at the link's rate (integrating any rate windows).
  /// Returns the last page's finish, or `start` when bytes is 0.
  double reserve_pages(LinkId link, double start, std::uint64_t bytes,
                       std::uint64_t page_bytes) CAR_BOUNDARY CAR_HOT;

  /// Finish time a one-page reserve_pages(link, start, bytes, bytes) *would*
  /// return right now, without committing anything.
  [[nodiscard]] double preview(LinkId link, double start,
                               std::uint64_t bytes) const CAR_BOUNDARY;

  [[nodiscard]] double rate(LinkId link) const { return links_[link].rate; }

  /// Timeline second at which `link` is next free.
  [[nodiscard]] double next_free(LinkId link) const {
    return links_[link].next_free;
  }

  /// Total bytes ever reserved on `link` (for accounting/tests).
  [[nodiscard]] std::uint64_t bytes(LinkId link) const {
    return links_[link].bytes;
  }

 private:
  struct Link {
    double next_free = 0.0;  // timeline seconds
    double rate = 0.0;       // base rate, bytes/second
    std::uint64_t bytes = 0;
    bool windowed = false;  // windows_[id] exists and is non-empty
  };
  struct RateWindow {
    double start = 0.0;
    double end = 0.0;
    double factor = 1.0;
  };

  friend class LinkPath;
  using HopTimes = std::array<double, kMaxHops>;

  /// The page sequence reserve_pages runs, on each of `hops` (at most
  /// kMaxHops distinct links) from the same `start`, committing nothing:
  /// leaves each hop's resulting next-free time in `free` and returns the
  /// latest, or `start` when bytes is 0 or `hops` is empty.
  double drain_hops(std::span<const LinkId> hops, double start,
                    std::uint64_t bytes, std::uint64_t page_bytes,
                    HopTimes& free) const CAR_HOT;

  /// drain_hops, committed to the hops unless the finish is past
  /// `deadline`; returns the finish either way.
  double reserve_hops(std::span<const LinkId> hops, double start,
                      std::uint64_t bytes, std::uint64_t page_bytes,
                      double deadline =
                          std::numeric_limits<double>::infinity()) CAR_HOT;

  /// Finish of `bytes` entering `link` at `begin`, honouring rate windows.
  /// Touches no occupancy.
  [[nodiscard]] double drain(LinkId link, double begin,
                             std::uint64_t bytes) const CAR_HOT;

  std::vector<Link> links_;
  /// Per link, in arming order; sized on the first window armed.
  std::vector<std::vector<RateWindow>> windows_;
};

/// The hop list of one transfer path (src access link, core links when
/// crossing racks, dst access link) as ids into the cluster's LinkTable.  An
/// empty path is a loopback: reservations are no-ops completing instantly.
/// Every hop of a transfer queues from the same start, so the hops pipeline:
/// the transfer finishes when the slowest hop drains, not after the sum of
/// hops.  reserve/reserve_by charge each hop page by page; no other flow's
/// pages land in between (every timing pass commits whole transfers in one
/// serialised order), so paging only fixes the floating-point sequence each
/// hop accumulates, and page_bytes stays part of the modelled result.
class LinkPath {
 public:
  LinkPath() = default;
  /// At most kMaxHops distinct ids, each < table.size() (CheckError
  /// otherwise).
  LinkPath(LinkTable& table, std::initializer_list<LinkId> hops);

  /// Commit page-wise reservations on every hop starting no earlier than
  /// `start` (LinkTable::reserve_hops); returns the finish time of the last
  /// page on the slowest hop, or `start` for zero bytes or a loopback.
  double reserve(double start, std::uint64_t bytes, std::uint64_t page_bytes)
      CAR_BOUNDARY CAR_HOT;

  /// reserve, if it finishes at or before `deadline`: one walk of the
  /// hops returns the finish reserve would, committed only when it is not
  /// past the deadline (a finish past it leaves every hop untouched).
  double reserve_by(double start, std::uint64_t bytes,
                    std::uint64_t page_bytes, double deadline)
      CAR_BOUNDARY CAR_HOT;

  [[nodiscard]] bool loopback() const noexcept { return n_hops_ == 0; }
  [[nodiscard]] std::span<const LinkId> hops() const noexcept {
    return {hops_.data(), n_hops_};
  }

 private:
  LinkTable* table_ = nullptr;
  std::array<LinkId, kMaxHops> hops_{};
  std::size_t n_hops_ = 0;
};

}  // namespace car::emul
