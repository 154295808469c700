#include "inject/event_log.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "util/check.h"

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
void append_escaped(std::string& out, std::string_view s) {
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
}

template <typename Int>
void append_int(std::string& out, Int v) {
  std::array<char, 24> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), end);
}

/// "%.9f" of `t`.  The buffer fits the longest fixed rendering of a double
/// (sign, 309 integer digits, point, 9 decimals); std::to_chars with a
/// precision prints exactly what printf does in the C locale.
void append_seconds(std::string& out, double t) {
  std::array<char, 1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 +
                       9 + 8>
      buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), t,
                                       std::chars_format::fixed, 9);
  CAR_CHECK(ec == std::errc{}, "format_seconds: buffer too small");
  out.append(buf.data(), end);
}

/// "%016llx" of `v`.
void append_hex16(std::string& out, std::uint64_t v) {
  constexpr std::string_view kDigits = "0123456789abcdef";
  std::array<char, 16> buf{};
  for (std::size_t i = buf.size(); i-- > 0; v >>= 4) buf[i] = kDigits[v & 15];
  out.append(buf.data(), buf.size());
}

double as_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint32_t narrow_index(std::size_t v, const char* what) {
  CAR_CHECK_LT(v, std::size_t{UINT32_MAX}, what);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::string format_seconds(double t) {
  std::string out;
  append_seconds(out, t);
  return out;
}

const char* to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKindNames.size() ? kKindNames[index] : "?";
}

Event& EventLog::push(double t, EventKind kind, std::uint64_t step,
                      std::int64_t attempt, std::size_t node,
                      std::uint64_t bytes, std::uint32_t ctx) {
  // Step attempts come from the step engine's 16-bit attempt field.
  CAR_DCHECK_LE(attempt, INT32_MAX, "EventLog: attempt overflow");
  Event& event = events_.emplace_back();
  event.t = t;
  event.kind = kind;
  event.step = static_cast<std::int64_t>(step);
  event.attempt = static_cast<std::int32_t>(attempt);
  event.node = static_cast<std::int64_t>(node);
  event.bytes = bytes;
  event.context = ctx;
  return event;
}

void EventLog::record(double t, EventKind kind, std::int64_t step,
                      std::int64_t attempt, std::int64_t node,
                      std::uint64_t bytes, std::string detail) {
  CAR_CHECK(attempt >= INT32_MIN && attempt <= INT32_MAX,
            "EventLog: attempt outside the 32-bit event field");
  Event& event = events_.emplace_back();
  event.t = t;
  event.kind = kind;
  event.step = step;
  event.attempt = static_cast<std::int32_t>(attempt);
  event.node = node;
  event.bytes = bytes;
  if (!detail.empty()) {
    event.arg = narrow_index(texts_.size(), "EventLog: too many details");
    texts_.push_back(std::move(detail));
  }
}

std::uint32_t EventLog::add_context(const StepContext& context) {
  const std::uint32_t index =
      narrow_index(contexts_.size(), "EventLog: too many step contexts");
  contexts_.push_back(context);
  return index;
}

void EventLog::transfer_attempt(std::uint32_t ctx, double t,
                                std::uint64_t step, std::size_t attempt,
                                std::size_t src, std::uint64_t bytes,
                                std::size_t dst,
                                const recovery::BufferRef& payload) {
  Event& event = push(t, EventKind::kTransferAttempt, step,
                      static_cast<std::int64_t>(attempt), src, bytes, ctx);
  event.a = dst;
  if (payload.kind == recovery::BufferRef::Kind::kChunk) {
    event.flags = Event::kChunkPayload;
    event.b = payload.stripe;
    event.arg = static_cast<std::uint32_t>(payload.chunk_index);
  } else {
    event.b = payload.step_id;
  }
}

void EventLog::transfer_complete(std::uint32_t ctx, double t,
                                 std::uint64_t step, std::size_t attempt,
                                 std::size_t dst, std::uint64_t bytes,
                                 std::uint8_t route) {
  push(t, EventKind::kTransferComplete, step,
       static_cast<std::int64_t>(attempt), dst, bytes, ctx)
      .flags = route;
}

void EventLog::transfer_timeout(std::uint32_t ctx, std::uint64_t step,
                                std::size_t attempt, std::size_t src,
                                std::uint64_t bytes, double projected,
                                double deadline) {
  Event& event = push(deadline, EventKind::kTransferTimeout, step,
                      static_cast<std::int64_t>(attempt), src, bytes, ctx);
  event.a = bits_of(projected);
  event.b = bits_of(deadline);
}

void EventLog::transfer_drop(std::uint32_t ctx, double t, std::uint64_t step,
                             std::size_t attempt, std::size_t src,
                             std::uint64_t bytes, std::size_t fault,
                             double deadline) {
  Event& event = push(t, EventKind::kTransferDrop, step,
                      static_cast<std::int64_t>(attempt), src, bytes, ctx);
  event.arg = narrow_index(fault, "EventLog: fault index");
  event.b = bits_of(deadline);
}

void EventLog::transfer_corrupt(std::uint32_t ctx, double t,
                                std::uint64_t step, std::size_t attempt,
                                std::size_t dst, std::uint64_t bytes,
                                std::size_t fault,
                                std::optional<Checksums> checksums) {
  Event& event = push(t, EventKind::kTransferCorrupt, step,
                      static_cast<std::int64_t>(attempt), dst, bytes, ctx);
  event.arg = narrow_index(fault, "EventLog: fault index");
  if (checksums) {
    event.a = checksums->sent;
    event.b = checksums->got;
  } else {
    event.flags = Event::kNoChecksum;
  }
}

void EventLog::retry_scheduled(std::uint32_t ctx, double t,
                               std::uint64_t step, std::size_t next_attempt,
                               std::size_t src, double delay,
                               double retry_at) {
  Event& event = push(t, EventKind::kRetryScheduled, step,
                      static_cast<std::int64_t>(next_attempt), src, 0, ctx);
  event.a = bits_of(delay);
  event.b = bits_of(retry_at);
}

void EventLog::compute_complete(std::uint32_t ctx, double t,
                                std::uint64_t step, std::size_t node,
                                std::uint64_t bytes, std::size_t inputs) {
  Event& event =
      push(t, EventKind::kComputeComplete, step, -1, node, bytes, ctx);
  event.arg = static_cast<std::uint32_t>(inputs);
}

std::size_t EventLog::count(EventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

const StepContext* EventLog::context(const Event& event) const {
  return event.context == Event::kNoContext ? nullptr
                                            : &contexts_[event.context];
}

void EventLog::append_detail(std::string& out, const Event& e,
                             bool json) const {
  const StepContext* ctx = context(e);
  if (ctx == nullptr) {
    if (e.arg == Event::kNoText) return;
    if (json) {
      append_escaped(out, texts_[e.arg]);
    } else {
      out += texts_[e.arg];
    }
    return;
  }
  // Typed details hold no character JSON would escape.
  // ", slice i/N @offset" on a grid of more than one slice.
  const auto slice_suffix = [&] {
    if (ctx->num_slices <= 1) return;
    const auto slice = static_cast<std::uint64_t>(e.step) % ctx->num_slices;
    out += ", slice ";
    append_int(out, slice + 1);
    out += '/';
    append_int(out, ctx->num_slices);
    out += " @";
    append_int(out, slice * ctx->slice_size);
  };
  switch (e.kind) {
    case EventKind::kTransferAttempt:
      out += "-> ";
      append_int(out, e.a);
      if ((e.flags & Event::kChunkPayload) != 0) {
        out += ", chunk s";
        append_int(out, e.b);
        out += '#';
        append_int(out, e.arg);
      } else {
        out += ", step-output #";
        append_int(out, e.b);
      }
      slice_suffix();
      break;
    case EventKind::kTransferComplete:
      out += (e.flags & Event::kLoopback) != 0    ? "loopback"
             : (e.flags & Event::kCrossRack) != 0 ? "cross-rack"
                                                  : "intra-rack";
      slice_suffix();
      break;
    case EventKind::kTransferTimeout:
      out += "projected finish ";
      append_seconds(out, as_double(e.a));
      out += " past deadline ";
      append_seconds(out, as_double(e.b));
      break;
    case EventKind::kTransferDrop:
      out += "fault #";
      append_int(out, e.arg);
      out += ", ack deadline ";
      append_seconds(out, as_double(e.b));
      break;
    case EventKind::kTransferCorrupt:
      out += "fault #";
      append_int(out, e.arg);
      if ((e.flags & Event::kNoChecksum) != 0) {
        out += ", checksum unavailable (metadata-only stripe)";
      } else {
        out += ", checksum sent=";
        append_hex16(out, e.a);
        out += " got=";
        append_hex16(out, e.b);
      }
      slice_suffix();
      break;
    case EventKind::kRetryScheduled:
      out += "backoff ";
      append_seconds(out, as_double(e.a));
      out += "s, retry at ";
      append_seconds(out, as_double(e.b));
      break;
    case EventKind::kComputeComplete:
      append_int(out, e.arg);
      out += " inputs";
      slice_suffix();
      break;
    default:
      CAR_CHECK_FAIL("EventLog: a step context on a free-text kind");
  }
  if (ctx->tagged) {
    out += ", batch ";
    append_int(out, ctx->batch);
  }
}

std::string EventLog::detail(const Event& event) const {
  std::string out;
  append_detail(out, event, /*json=*/false);
  return out;
}

std::string EventLog::to_json() const {
  std::string out = "[\n";
  // A typical line is ~150 bytes; reserving avoids most regrowth copies.
  out.reserve(events_.size() * 160 + 4);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out += "  {\"seq\":";
    append_int(out, i);
    out += ",\"t\":\"";
    append_seconds(out, e.t);
    out += "\",\"kind\":\"";
    out += to_string(e.kind);
    out += "\",\"step\":";
    append_int(out, e.step);
    out += ",\"attempt\":";
    append_int(out, std::int64_t{e.attempt});
    out += ",\"node\":";
    append_int(out, e.node);
    out += ",\"bytes\":";
    append_int(out, e.bytes);
    out += ",\"detail\":\"";
    append_detail(out, e, /*json=*/true);
    out += "\"}";
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
