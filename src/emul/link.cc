#include "emul/link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/check.h"

namespace car::emul {

LinkId LinkTable::add(double bytes_per_second) {
  CAR_CHECK(bytes_per_second > 0 && std::isfinite(bytes_per_second),
            "LinkTable: rate must be positive and finite, got " +
                std::to_string(bytes_per_second));
  CAR_CHECK(links_.size() < std::numeric_limits<LinkId>::max(),
            "LinkTable: too many links");
  links_.push_back({0.0, bytes_per_second, 0, false});
  return static_cast<LinkId>(links_.size() - 1);
}

void LinkTable::add_rate_window(LinkId link, double start, double end,
                                double factor) {
  CAR_CHECK_LT(link, links_.size(), "LinkTable::add_rate_window: bad link");
  CAR_CHECK(std::isfinite(start) && std::isfinite(end),
            "LinkTable::add_rate_window: window bounds must be finite");
  CAR_CHECK(start >= 0.0 && start < end,
            "LinkTable::add_rate_window: requires 0 <= start < end");
  CAR_CHECK(std::isfinite(factor) && factor >= 0.0,
            "LinkTable::add_rate_window: factor must be finite and >= 0, "
            "got " + std::to_string(factor));
  if (windows_.size() < links_.size()) windows_.resize(links_.size());
  windows_[link].push_back({start, end, factor});
  links_[link].windowed = true;
}

double LinkTable::rate_at(LinkId link, double t) const {
  CAR_CHECK_LT(link, links_.size(), "LinkTable::rate_at: bad link");
  double rate = links_[link].rate;
  if (!links_[link].windowed) return rate;
  for (const auto& w : windows_[link]) {
    if (t >= w.start && t < w.end) rate *= w.factor;
  }
  return rate;
}

double LinkTable::drain(LinkId link, double begin, std::uint64_t bytes) const {
  const Link& l = links_[link];
  if (bytes == 0) return begin;
  if (!l.windowed) return begin + static_cast<double>(bytes) / l.rate;
  // Integrate the piecewise-constant rate profile from `begin` until the
  // payload drains.  Every window start/end after `t` is a potential rate
  // change; a zero effective rate fast-forwards to the next boundary (all
  // windows end, so a blackout cannot extend to infinity).
  double t = begin;
  double remaining = static_cast<double>(bytes);
  for (;;) {
    double rate = l.rate;
    double boundary = std::numeric_limits<double>::infinity();
    for (const auto& w : windows_[link]) {
      if (t >= w.start && t < w.end) rate *= w.factor;
      if (w.start > t) boundary = std::min(boundary, w.start);
      if (w.end > t) boundary = std::min(boundary, w.end);
    }
    if (rate > 0.0) {
      const double finish = t + remaining / rate;
      if (finish <= boundary) return finish;
      remaining -= rate * (boundary - t);
    } else {
      CAR_CHECK_STATE(std::isfinite(boundary),
                      "LinkTable: blacked out with no closing window");
    }
    t = boundary;
  }
}

double LinkTable::reserve_pages(LinkId link, double start, std::uint64_t bytes,
                                std::uint64_t page_bytes) {
  CAR_CHECK_LT(link, links_.size(), "LinkTable::reserve_pages: bad link");
  return reserve_hops({&link, 1}, start, bytes, page_bytes);
}

double LinkTable::drain_hops(std::span<const LinkId> hops, double start,
                             std::uint64_t bytes, std::uint64_t page_bytes,
                             HopTimes& free) const {
  CAR_CHECK(std::isfinite(start) && start >= 0.0,
            "LinkTable::drain_hops: start must be a finite non-negative "
            "time");
  CAR_CHECK(page_bytes > 0, "LinkTable::drain_hops: page_bytes > 0");
  CAR_CHECK_LE(hops.size(), kMaxHops, "LinkTable: too many hops");
  // Per page: begin = max(next_free, start), next_free = begin + page / rate,
  // integrated over the rate profile when the link has windows.  Links are
  // independent, so the hops' page chains advance side by side in
  // registers, and a whole page's duration is one division per hop: the
  // quotient every page would compute.
  const std::size_t n = hops.size();
  HopTimes whole{};
  for (std::size_t h = 0; h < n; ++h) {
    CAR_DCHECK_LT(hops[h], links_.size(), "LinkTable::drain_hops: bad link");
    free[h] = links_[hops[h]].next_free;
    whole[h] = static_cast<double>(page_bytes) / links_[hops[h]].rate;
  }
  if (bytes == 0) return start;
  auto advance = [&](std::size_t h, std::uint64_t page, double duration) {
    const double previous_free = free[h];
    const double begin = std::max(free[h], start);
    free[h] = links_[hops[h]].windowed ? drain(hops[h], begin, page)
                                       : begin + duration;
    // Timeline monotonicity: a link frees no earlier with every page (never
    // travels back in time), and no earlier than the page's start.
    CAR_DCHECK_GE(free[h], previous_free, "link timeline regressed");
    CAR_DCHECK_GE(free[h], begin, "link finish before start");
  };
  for (std::uint64_t p = bytes / page_bytes; p > 0; --p) {
    for (std::size_t h = 0; h < n; ++h) advance(h, page_bytes, whole[h]);
  }
  if (const std::uint64_t tail = bytes % page_bytes; tail > 0) {
    for (std::size_t h = 0; h < n; ++h) {
      advance(h, tail, static_cast<double>(tail) / links_[hops[h]].rate);
    }
  }
  double finish = start;
  for (std::size_t h = 0; h < n; ++h) finish = std::max(finish, free[h]);
  return finish;
}

double LinkTable::reserve_hops(std::span<const LinkId> hops, double start,
                               std::uint64_t bytes, std::uint64_t page_bytes,
                               double deadline) {
  HopTimes free{};
  const double finish = drain_hops(hops, start, bytes, page_bytes, free);
  if (finish > deadline) return finish;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    links_[hops[h]].next_free = free[h];
    links_[hops[h]].bytes += bytes;
  }
  return finish;
}

double LinkTable::preview(LinkId link, double start,
                          std::uint64_t bytes) const {
  CAR_CHECK(std::isfinite(start) && start >= 0.0,
            "LinkTable::preview: start must be a finite non-negative time");
  CAR_CHECK_LT(link, links_.size(), "LinkTable::preview: bad link");
  return drain(link, std::max(links_[link].next_free, start), bytes);
}

LinkPath::LinkPath(LinkTable& table, std::initializer_list<LinkId> hops)
    : table_(&table), n_hops_(hops.size()) {
  CAR_CHECK(hops.size() <= kMaxHops, "LinkPath: too many hops");
  std::size_t h = 0;
  for (const LinkId hop : hops) {
    CAR_CHECK_LT(hop, table.size(), "LinkPath: hop outside the link table");
    CAR_CHECK(std::find(hops_.begin(), hops_.begin() + h, hop) ==
                  hops_.begin() + h,
              "LinkPath: a link appears twice");
    hops_[h++] = hop;
  }
}

double LinkPath::reserve(double start, std::uint64_t bytes,
                         std::uint64_t page_bytes) {
  CAR_CHECK(page_bytes > 0, "LinkPath::reserve: page_bytes must be > 0");
  if (loopback()) return start;
  return table_->reserve_hops(hops(), start, bytes, page_bytes);
}

double LinkPath::reserve_by(double start, std::uint64_t bytes,
                            std::uint64_t page_bytes, double deadline) {
  CAR_CHECK(page_bytes > 0, "LinkPath::reserve_by: page_bytes must be > 0");
  if (loopback()) return start;
  return table_->reserve_hops(hops(), start, bytes, page_bytes, deadline);
}

}  // namespace car::emul
