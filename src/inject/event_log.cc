#include "inject/event_log.h"

#include <array>
#include <cstdio>
#include <utility>

namespace car::inject {

namespace {

constexpr std::array<const char*, 22> kKindNames = {
    "run-start",         "link-fault-armed", "transfer-attempt",
    "transfer-complete", "transfer-timeout", "transfer-drop",
    "transfer-corrupt",  "retry-scheduled",  "compute-complete",
    "node-crash",        "steps-cancelled",  "replan-start",
    "replan-validated",  "resume",           "outputs-published",
    "run-complete",      "membership-change", "scan-complete",
    "batch-dispatched",  "batch-complete",   "batch-cancelled",
    "stripes-requeued",
};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> hex{};
          std::snprintf(hex.data(), hex.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_seconds(double t) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9f", t);
  return {buf.data()};
}

const char* to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKindNames.size() ? kKindNames[index] : "?";
}

void EventLog::record(double t, EventKind kind, std::int64_t step,
                      std::int64_t attempt, std::int64_t node,
                      std::uint64_t bytes, std::string detail) {
  Event event;
  event.seq = events_.size();
  event.t = t;
  event.kind = kind;
  event.step = step;
  event.attempt = attempt;
  event.node = node;
  event.bytes = bytes;
  event.detail = std::move(detail);
  events_.push_back(std::move(event));
}

std::size_t EventLog::count(EventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

std::string EventLog::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out += "  {\"seq\":" + std::to_string(e.seq) + ",\"t\":\"" +
           format_seconds(e.t) + "\",\"kind\":\"" + to_string(e.kind) +
           "\",\"step\":" + std::to_string(e.step) +
           ",\"attempt\":" + std::to_string(e.attempt) +
           ",\"node\":" + std::to_string(e.node) +
           ",\"bytes\":" + std::to_string(e.bytes) + ",\"detail\":\"" +
           escape(e.detail) + "\"}";
    if (i + 1 < events_.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

std::string EventLog::summary() const {
  std::array<std::size_t, kKindNames.size()> counts{};
  for (const auto& event : events_) {
    ++counts[static_cast<std::size_t>(event.kind)];
  }
  std::string out;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    if (!out.empty()) out += ", ";
    out += std::string(kKindNames[k]) + " x" + std::to_string(counts[k]);
  }
  return out;
}

}  // namespace car::inject
