// The typed event record and its renderer.
//
// BatchDriver stores its step events as typed fields and EventLog renders
// their detail text only at export.  These tests pin that rendering to the
// exact strings the driver wrote when it still built each detail as it
// recorded the event (every step kind, with and without the batch tag,
// chunk-granular and sliced), check the fixed-precision timestamp format,
// and check that a step event fits 64 bytes and that recording one
// allocates nothing beyond the log's own block storage — this binary counts
// every global operator new.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/driver.h"
#include "inject/event_log.h"
#include "inject/fault.h"
#include "recovery/plan.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacements allocate with malloc and free with free (the array
// forms too: a sanitizer runtime may replace those separately); GCC
// cannot tell a replaced operator delete from a mismatched free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace car::inject {
namespace {

/// printf's "%.9f" with room for any double: what format_seconds printed
/// for every value whose rendering fit its old 64-byte buffer.
std::string printf_seconds(double t) {
  std::array<char, 512> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9f", t);
  return {buf.data()};
}

TEST(FormatSeconds, SmallValuesRenderAsPrintfDoes) {
  EXPECT_EQ(format_seconds(0.0), "0.000000000");
  EXPECT_EQ(format_seconds(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(format_seconds(0.509081464), "0.509081464");
  EXPECT_EQ(format_seconds(58.29614839907315), "58.296148399");
  EXPECT_EQ(format_seconds(-2.5), "-2.500000000");
  util::Rng rng(23);
  for (int i = 0; i < 20'000; ++i) {
    // Magnitudes from 1e-12 to 1e40, both signs.
    const double t = std::ldexp(rng.next_double() + 0.5,
                                static_cast<int>(rng.next_below(173)) - 40) *
                     (rng.next_below(2) == 0 ? 1.0 : -1.0);
    ASSERT_EQ(format_seconds(t), printf_seconds(t)) << t;
  }
}

TEST(FormatSeconds, LargeFiniteTimesRenderInFull) {
  const std::string big = format_seconds(1e300);
  EXPECT_EQ(big.size(), 301u + 1u + 9u);
  EXPECT_EQ(big.substr(big.size() - 10), ".000000000");
  EXPECT_EQ(std::strtod(big.c_str(), nullptr), 1e300);
  EXPECT_EQ(big, printf_seconds(1e300));
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(format_seconds(max), printf_seconds(max));
  EXPECT_EQ(format_seconds(-max), printf_seconds(-max));
  EXPECT_EQ(std::strtod(format_seconds(-max).c_str(), nullptr), -max);
}

// One batch whose run logs every step kind: a cross-rack chunk transfer
// that times out behind a rack blackout and is then dropped once, a partial
// compute, an intra-rack step-output transfer corrupted and then dropped, a
// loopback, and the final compute on the replacement.
EventLog run_every_step_kind(LogFraming framing, std::uint64_t slice_bytes,
                             bool metadata_only) {
  using recovery::BufferRef;
  constexpr std::uint64_t kChunk = 64;
  const cluster::Topology topology({3, 3});
  emul::EmulConfig config;
  config.node_bps = 1e6;
  config.page_bytes = 16;
  emul::Cluster cluster(topology, config);
  cluster.store_chunk(0, 0, 0, rs::Chunk(kChunk, 0x11));
  cluster.store_chunk(4, 0, 1, rs::Chunk(kChunk, 0x22));
  cluster.store_chunk(5, 0, 2, rs::Chunk(kChunk, 0x33));
  recovery::PlanBuilder builder{{}, topology};
  builder.plan.replacement = 5;
  builder.plan.replacement_rack = 1;
  builder.plan.chunk_size = kChunk;
  const std::size_t ship =
      builder.add_transfer(0, 0, 4, BufferRef::chunk(0, 0), {});
  const std::size_t partial = builder.add_compute(
      0, 4, {{BufferRef::chunk(0, 0), 2}, {BufferRef::chunk(0, 1), 3}},
      {ship});
  const std::size_t forward =
      builder.add_transfer(0, 4, 5, BufferRef::step(partial), {partial});
  const std::size_t local =
      builder.add_transfer(0, 5, 5, BufferRef::chunk(0, 2), {});
  const std::size_t last = builder.add_compute(
      0, 5, {{BufferRef::step(partial), 1}, {BufferRef::chunk(0, 2), 7}},
      {forward, local});
  builder.plan.outputs.push_back({0, 3, last});

  FaultPlan faults;
  faults.link_faults.push_back({LinkSide::kRackUp, 0, 0.0, 0.6, 0.0});
  TransferFault drop;
  drop.kind = TransferFault::Kind::kDrop;
  drop.attempts = {2};
  TransferFault corrupt;
  corrupt.kind = TransferFault::Kind::kCorrupt;
  corrupt.attempts = {1};
  faults.transfer_faults = {drop, corrupt};
  DataPolicy data;
  data.metadata_only = metadata_only;

  EventLog log;
  BatchDriver driver(cluster, faults, RetryPolicy{}, 11, std::move(data), log,
                     framing);
  const std::uint64_t slice =
      slice_bytes > 0 ? slice_bytes : builder.plan.chunk_size;
  driver.admit(3, recovery::PlanArena::build(builder.plan, slice));
  while (driver.run_until(std::nullopt).stop != StopReason::kIdle) {
  }
  return log;
}

/// The detail of the first event of `kind` on base step `base`, as the
/// driver wrote it under LogFraming::kBatches for batch 3 (kClient drops
/// the ", batch 3" tag), chunk-granular and on a 16-byte slice grid.
struct Expected {
  EventKind kind;
  std::int64_t base;
  const char* chunk;
  const char* sliced;
};

constexpr std::array<Expected, 13> kExpected = {{
    {EventKind::kTransferAttempt, 0, "-> 4, chunk s0#0",
     "-> 4, chunk s0#0, slice 1/4 @0"},
    {EventKind::kTransferAttempt, 2, "-> 5, step-output #1",
     "-> 5, step-output #1, slice 4/4 @48"},
    {EventKind::kTransferAttempt, 3, "-> 5, chunk s0#2",
     "-> 5, chunk s0#2, slice 1/4 @0"},
    {EventKind::kTransferComplete, 0, "cross-rack",
     "cross-rack, slice 4/4 @48"},
    {EventKind::kTransferComplete, 2, "intra-rack",
     "intra-rack, slice 2/4 @16"},
    {EventKind::kTransferComplete, 3, "loopback", "loopback, slice 1/4 @0"},
    {EventKind::kTransferTimeout, 0,
     "projected finish 0.600106667 past deadline 0.500000000",
     "projected finish 0.600026667 past deadline 0.500000000"},
    {EventKind::kTransferDrop, 0, "fault #0, ack deadline 1.009081464",
     "fault #0, ack deadline 1.008802773"},
    {EventKind::kTransferDrop, 2, "fault #0, ack deadline 1.535818676",
     "fault #0, ack deadline 1.538195594"},
    {EventKind::kTransferCorrupt, 2,
     "fault #1, checksum sent=244d6c34e920a925 got=452fecab6eb1a806",
     "fault #1, checksum sent=11d82a6e36ed34a5 got=1328946e380affe8, "
     "slice 4/4 @48"},
    {EventKind::kRetryScheduled, 0,
     "backoff 0.009081464s, retry at 0.509081464",
     "backoff 0.009081464s, retry at 0.509081464"},
    {EventKind::kComputeComplete, 1, "2 inputs", "2 inputs, slice 4/4 @48"},
    {EventKind::kComputeComplete, 4, "2 inputs", "2 inputs, slice 2/4 @16"},
}};

/// A metadata-only stripe has no payload to checksum.
constexpr const char* kNoChecksumChunk =
    "fault #1, checksum unavailable (metadata-only stripe)";
constexpr const char* kNoChecksumSliced =
    "fault #1, checksum unavailable (metadata-only stripe), slice 4/4 @48";

TEST(EventRender, EveryStepKindMatchesTheDriversText) {
  for (const std::uint64_t slice_bytes :
       {std::uint64_t{0}, std::uint64_t{16}}) {
    const std::int64_t slices = slice_bytes == 0 ? 1 : 4;
    for (const bool metadata_only : {false, true}) {
      for (const LogFraming framing :
           {LogFraming::kBatches, LogFraming::kClient}) {
        const EventLog log =
            run_every_step_kind(framing, slice_bytes, metadata_only);
        const std::string tag =
            framing == LogFraming::kBatches ? ", batch 3" : "";
        for (const Expected& want : kExpected) {
          std::string text = slice_bytes == 0 ? want.chunk : want.sliced;
          if (metadata_only && want.kind == EventKind::kTransferCorrupt) {
            text = slice_bytes == 0 ? kNoChecksumChunk : kNoChecksumSliced;
          }
          const Event* found = nullptr;
          for (const Event& event : log.events()) {
            if (event.kind == want.kind && event.step / slices == want.base) {
              found = &event;
              break;
            }
          }
          const std::string where =
              std::string(to_string(want.kind)) + " base " +
              std::to_string(want.base) + " slice_bytes " +
              std::to_string(slice_bytes) + (metadata_only ? " meta" : "") +
              tag;
          ASSERT_NE(found, nullptr) << where;
          EXPECT_EQ(log.detail(*found), text + tag) << where;
          const StepContext* context = log.context(*found);
          ASSERT_NE(context, nullptr) << where;
          EXPECT_EQ(context->batch, 3u) << where;
          EXPECT_EQ(context->num_slices, static_cast<std::uint64_t>(slices));
        }
      }
    }
  }
}

TEST(EventRender, FreeTextIsEscapedAndHasNoContext) {
  EventLog log;
  log.record(0.0, EventKind::kRunStart, -1, -1, -1, 0, "a \"b\"\t\x01");
  log.record(1.0, EventKind::kRunComplete);
  EXPECT_EQ(log.context(log.events()[0]), nullptr);
  EXPECT_EQ(log.detail(log.events()[0]), "a \"b\"\t\x01");
  EXPECT_EQ(log.detail(log.events()[1]), "");
  EXPECT_EQ(log.to_json(),
            "[\n"
            "  {\"seq\":0,\"t\":\"0.000000000\",\"kind\":\"run-start\","
            "\"step\":-1,\"attempt\":-1,\"node\":-1,\"bytes\":0,"
            "\"detail\":\"a \\\"b\\\"\\t\\u0001\"},\n"
            "  {\"seq\":1,\"t\":\"1.000000000\",\"kind\":\"run-complete\","
            "\"step\":-1,\"attempt\":-1,\"node\":-1,\"bytes\":0,"
            "\"detail\":\"\"}\n"
            "]\n");
}

TEST(EventRecord, StepEventFitsSixtyFourBytes) {
  EXPECT_LE(sizeof(Event), 64u);
}

TEST(EventRecord, RecordingStepEventsAllocatesOnlyLogBlocks) {
  EventLog log;
  const std::uint32_t sliced = log.add_context({7, true, 4, 16});
  const std::uint32_t whole = log.add_context({8, false, 1, 64});
  constexpr std::size_t kEvents = 3 * EventList::kBlockEvents + 100;
  std::size_t block_allocations = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const std::uint32_t ctx = i % 2 == 0 ? sliced : whole;
    const double t = static_cast<double>(i) * 1e-3;
    const bool new_block = log.size() % EventList::kBlockEvents == 0;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    switch (i % 7) {
      case 0:
        log.transfer_attempt(ctx, t, i, 1, 2, 4096, 5,
                             i % 3 == 0 ? recovery::BufferRef::chunk(i, 1)
                                        : recovery::BufferRef::step(i));
        break;
      case 1:
        log.transfer_complete(ctx, t, i, 1, 5, 4096, Event::kCrossRack);
        break;
      case 2:
        log.transfer_timeout(ctx, i, 1, 2, 4096, t + 1.0, t + 0.5);
        break;
      case 3:
        log.transfer_drop(ctx, t, i, 2, 2, 4096, 0, t + 0.5);
        break;
      case 4:
        log.transfer_corrupt(ctx, t, i, 1, 5, 4096, 1,
                             EventLog::Checksums{i, ~i});
        break;
      case 5:
        log.retry_scheduled(ctx, t, i, 2, 2, 0.01, t + 0.01);
        break;
      default:
        log.compute_complete(ctx, t, i, 5, 4096, 3);
        break;
    }
    const std::size_t made =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (new_block) {
      // The block, and at most one regrowth of the block index.
      EXPECT_LE(made, 2u) << "event " << i;
      block_allocations += made;
    } else {
      ASSERT_EQ(made, 0u) << "event " << i << " allocated";
    }
  }
  EXPECT_EQ(log.size(), kEvents);
  EXPECT_GE(block_allocations, 4u);
  // Rendering still reads every stored field back.
  EXPECT_EQ(log.detail(log.events()[0]),
            "-> 5, chunk s0#1, slice 1/4 @0, batch 7");
  EXPECT_EQ(log.detail(log.events()[4]),
            "fault #1, checksum sent=0000000000000004 got=fffffffffffffffb, "
            "slice 1/4 @0, batch 7");
}

}  // namespace
}  // namespace car::inject
