#include "emul/link.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace car::emul {

SerialLink::SerialLink(double bytes_per_second) : rate_(bytes_per_second) {
  CAR_CHECK(bytes_per_second > 0, "SerialLink: rate must be positive");
}

void SerialLink::add_rate_window(double start, double end, double factor) {
  CAR_CHECK(std::isfinite(start) && std::isfinite(end),
            "SerialLink::add_rate_window: window bounds must be finite");
  CAR_CHECK(start >= 0.0 && start < end,
            "SerialLink::add_rate_window: requires 0 <= start < end");
  CAR_CHECK(factor >= 0.0,
            "SerialLink::add_rate_window: factor must be >= 0");
  util::MutexLock lock(mu_);
  windows_.push_back({start, end, factor});
}

double SerialLink::rate_at(double t) const {
  util::MutexLock lock(mu_);
  double rate = rate_;
  for (const auto& w : windows_) {
    if (t >= w.start && t < w.end) rate *= w.factor;
  }
  return rate;
}

double SerialLink::drain_locked(double begin, std::uint64_t bytes) const {
  if (bytes == 0) return begin;
  if (windows_.empty()) {
    return begin + static_cast<double>(bytes) / rate_;
  }
  // Integrate the piecewise-constant rate profile from `begin` until the
  // payload drains.  Every window start/end after `t` is a potential rate
  // change; a zero effective rate fast-forwards to the next boundary (all
  // windows end, so a blackout cannot extend to infinity).
  double t = begin;
  double remaining = static_cast<double>(bytes);
  for (;;) {
    double rate = rate_;
    double boundary = std::numeric_limits<double>::infinity();
    for (const auto& w : windows_) {
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
                      "SerialLink: blacked out with no closing window");
    }
    t = boundary;
  }
}

double SerialLink::drain_from(double busy_until, double start,
                              std::uint64_t bytes) const {
  util::MutexLock lock(mu_);
  return drain_locked(std::max(busy_until, start), bytes);
}

double SerialLink::reserve(double start, std::uint64_t bytes) {
  CAR_CHECK(std::isfinite(start) && start >= 0.0,
            "SerialLink::reserve: start must be a finite non-negative time");
  util::MutexLock lock(mu_);
  const double previous_free = next_free_;
  const double begin = std::max(next_free_, start);
  next_free_ = drain_locked(begin, bytes);
  // Timeline monotonicity: the link frees no earlier with every reservation
  // (never travels back in time), and no earlier than the requested start.
  CAR_DCHECK_GE(next_free_, previous_free, "SerialLink timeline regressed");
  CAR_DCHECK_GE(next_free_, begin, "SerialLink finish before start");
  total_bytes_ += bytes;
  return next_free_;
}

double SerialLink::reserve_pages(double start, std::uint64_t bytes,
                                 std::uint64_t page_bytes) {
  CAR_CHECK(std::isfinite(start) && start >= 0.0,
            "SerialLink::reserve_pages: start must be a finite non-negative "
            "time");
  CAR_CHECK(page_bytes > 0, "SerialLink::reserve_pages: page_bytes > 0");
  util::MutexLock lock(mu_);
  // The loop body is reserve()'s, page by page; keeping it inline (rather
  // than calling reserve) is what makes the single lock acquisition legal.
  double finish = start;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t page = std::min(remaining, page_bytes);
    const double previous_free = next_free_;
    const double begin = std::max(next_free_, start);
    next_free_ = drain_locked(begin, page);
    CAR_DCHECK_GE(next_free_, previous_free, "SerialLink timeline regressed");
    CAR_DCHECK_GE(next_free_, begin, "SerialLink finish before start");
    total_bytes_ += page;
    finish = next_free_;
    remaining -= page;
  }
  return finish;
}

double SerialLink::preview(double start, std::uint64_t bytes) const {
  CAR_CHECK(std::isfinite(start) && start >= 0.0,
            "SerialLink::preview: start must be a finite non-negative time");
  util::MutexLock lock(mu_);
  return drain_locked(std::max(next_free_, start), bytes);
}

double SerialLink::next_free() const {
  util::MutexLock lock(mu_);
  return next_free_;
}

std::uint64_t SerialLink::bytes_transmitted() const noexcept {
  util::MutexLock lock(mu_);
  return total_bytes_;
}

LinkPath::LinkPath(std::vector<SerialLink*> hops) : hops_(std::move(hops)) {
  CAR_CHECK(hops_.size() <= kMaxHops, "LinkPath: too many hops");
  for (const SerialLink* hop : hops_) {
    CAR_CHECK(hop != nullptr, "LinkPath: null hop");
  }
}

double LinkPath::reserve(double start, std::uint64_t bytes,
                         std::uint64_t page_bytes) {
  CAR_CHECK(page_bytes > 0, "LinkPath::reserve: page_bytes must be > 0");
  // Hop-major: every hop commits its whole page sequence at once.  Hop
  // states are independent, so this is the per-hop page sequence a
  // page-major walk would commit, and each hop's page finishes are
  // monotone, so the max of the per-hop last finishes is the max over every
  // (hop, page) reservation.
  double finish = start;
  for (SerialLink* hop : hops_) {
    finish = std::max(finish, hop->reserve_pages(start, bytes, page_bytes));
  }
  return finish;
}

double LinkPath::preview(double start, std::uint64_t bytes,
                         std::uint64_t page_bytes) const {
  CAR_CHECK(page_bytes > 0, "LinkPath::preview: page_bytes must be > 0");
  // Shadow each hop's next-free time so successive pages of this transfer
  // queue behind each other exactly as the committing loop would make them.
  // Stack array, not a vector: preview runs once per candidate transfer in
  // the planner's inner loop, and the constructor bounds hops to kMaxHops.
  std::array<double, kMaxHops> busy{};
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    busy[h] = hops_[h]->next_free();
  }
  double finish = start;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t page = std::min(remaining, page_bytes);
    for (std::size_t h = 0; h < hops_.size(); ++h) {
      busy[h] = hops_[h]->drain_from(busy[h], start, page);
      finish = std::max(finish, busy[h]);
    }
    remaining -= page;
  }
  return finish;
}

}  // namespace car::emul
