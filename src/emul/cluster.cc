#include "emul/cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "emul/calendar_queue.h"
#include "emul/executor.h"
#include "recovery/compute.h"
#include "recovery/scheduler.h"
#include "recovery/slice.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace car::emul {

namespace {

using recovery::BufferRef;
using recovery::PlanStep;
using recovery::SliceInfo;
using recovery::SlicePlan;
using recovery::StepKind;

/// Buffer keys: bit 63 selects step outputs; chunks pack (stripe, index)
/// as stripe << 24 | index.  Out-of-range ids are rejected rather than
/// silently colliding with other chunks or with the step namespace.
constexpr std::uint64_t kStepBit = 1ULL << 63;
constexpr unsigned kChunkIndexBits = 24;
constexpr std::uint64_t kMaxChunkIndex = (1ULL << kChunkIndexBits) - 1;
constexpr std::uint64_t kMaxStripe = (1ULL << (63 - kChunkIndexBits)) - 1;

std::uint64_t chunk_key(cluster::StripeId stripe, std::size_t chunk_index) {
  if (static_cast<std::uint64_t>(stripe) > kMaxStripe) {
    throw std::out_of_range("emul: stripe id exceeds 2^39-1 key range");
  }
  if (static_cast<std::uint64_t>(chunk_index) > kMaxChunkIndex) {
    throw std::out_of_range("emul: chunk index exceeds 2^24-1 key range");
  }
  return (static_cast<std::uint64_t>(stripe) << kChunkIndexBits) |
         static_cast<std::uint64_t>(chunk_index);
}

std::uint64_t step_key(std::size_t step_id) {
  if ((static_cast<std::uint64_t>(step_id) & kStepBit) != 0) {
    throw std::out_of_range("emul: step id exceeds 2^63-1 key range");
  }
  return kStepBit | static_cast<std::uint64_t>(step_id);
}

std::uint64_t key_of(const BufferRef& ref) {
  return ref.kind == BufferRef::Kind::kChunk
             ? chunk_key(ref.stripe, ref.chunk_index)
             : step_key(ref.step_id);
}

// ---- Phase-2 replay machinery ------------------------------------------
//
// Both replay engines pop events in the identical global (time, id) order;
// these adapters let one generic event handler drive either queue type.

using ReplayEntry = std::pair<double, std::uint64_t>;
using ReplayHeap =
    std::priority_queue<ReplayEntry, std::vector<ReplayEntry>, std::greater<>>;

inline void replay_push(ReplayHeap& queue, double time, std::uint64_t id) {
  queue.emplace(time, id);
}
inline void replay_push(CalendarQueue& queue, double time, std::uint64_t id) {
  queue.push(time, id);
}

// Event keys for the lock-free safe window, as two orderable 64-bit words:
// a non-negative IEEE-754 double's bit pattern, read as an unsigned
// integer, orders exactly like the double (+inf included), so the time
// component of a (time, id) key fits one atomic word.  Event times here are
// always non-negative — the virtual clock starts at 0 and link
// reservations never regress (execute_arena_impl CHECKs the start).
inline std::uint64_t time_bits(double time) noexcept {
  return std::bit_cast<std::uint64_t>(time);
}
constexpr std::uint64_t kInfTimeBits =
    std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
constexpr std::uint64_t kDoneId = std::numeric_limits<std::uint64_t>::max();

inline bool key_less(std::uint64_t t1, std::uint64_t i1, std::uint64_t t2,
                     std::uint64_t i2) noexcept {
  return t1 < t2 || (t1 == t2 && i1 < i2);
}

/// One replay shard's published frontier (see the protocol comment at
/// run_calendar_replay in execute_arena_impl).  Padded to a cache line so
/// peers polling one shard's slot never false-share another's.
struct alignas(64) ReplayTopSlot {
  std::atomic<std::uint64_t> time{0};
  std::atomic<std::uint64_t> id{0};
};

/// One spin-wait step: pause hints while the wait is young, then yield so a
/// stalled peer (oversubscribed machine) can run.
inline void relax_cpu(std::size_t idle) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (idle < 64) {
    __builtin_ia32_pause();
    return;
  }
#elif defined(__aarch64__)
  if (idle < 64) {
    asm volatile("yield");
    return;
  }
#endif
  (void)idle;
  std::this_thread::yield();
}

}  // namespace

struct Cluster::Impl {
  struct NodeStore {
    mutable util::Mutex mu;
    std::unordered_map<std::uint64_t, rs::Chunk> buffers CAR_GUARDED_BY(mu);
  };

  explicit Impl(ClockMode mode) : clock(mode) {}

  EmulClock clock;
  std::vector<NodeStore> stores;
  std::vector<std::unique_ptr<SerialLink>> node_up;
  std::vector<std::unique_ptr<SerialLink>> node_down;
  std::vector<std::unique_ptr<SerialLink>> rack_up;
  std::vector<std::unique_ptr<SerialLink>> rack_down;
  std::vector<util::Mutex> cpu;  // serialises compute per emulated node

  // Liveness state: which nodes have been dropped (dead for the run), the
  // guarded recovery destinations (counted per node so guards nest, with a
  // generation stamp per node for diagnostics — every generation of a
  // rolling recovery stays protected, not just the newest), and a drop
  // epoch that lets an execute() in flight notice a concurrent drop and
  // abort.
  struct GuardEntry {
    std::size_t count = 0;
    std::uint64_t generation = 0;
  };
  mutable util::Mutex state_mu;
  std::vector<bool> dropped CAR_GUARDED_BY(state_mu);
  std::unordered_map<cluster::NodeId, GuardEntry> guards
      CAR_GUARDED_BY(state_mu);
  std::uint64_t guard_generations CAR_GUARDED_BY(state_mu) = 0;
  std::atomic<std::uint64_t> drop_epoch{0};

  // Pooled staging + store capacity: all wire copies, compute scratch, and
  // store buffers created by execution come from here, so steady-state
  // recovery allocates nothing per slice (see util/buffer_pool.h).
  util::BufferPool pool;

  const rs::Chunk* find(cluster::NodeId node, std::uint64_t key) const {
    const auto& store = stores[node];
    util::MutexLock lock(store.mu);
    const auto it = store.buffers.find(key);
    return it == store.buffers.end() ? nullptr : &it->second;
  }

  void put(cluster::NodeId node, std::uint64_t key, rs::Chunk data) {
    auto& store = stores[node];
    rs::Chunk evicted;
    {
      util::MutexLock lock(store.mu);
      rs::Chunk& slot = store.buffers[key];
      evicted = std::move(slot);
      slot = std::move(data);
    }
    pool.recycle(std::move(evicted));  // replaced capacity goes back
  }

  /// Ranged write: materialise the buffer at full_size (from the pool when
  /// absent or mis-sized) and copy `data` into [offset, offset + size).
  /// The store lock serialises writers of one buffer; distinct slices touch
  /// disjoint ranges, so the plan's slice coverage assembles the chunk
  /// exactly.  Once a buffer is established at full_size it is never
  /// re-materialised, which keeps concurrent readers' pointers valid
  /// (unordered_map references are stable; see the compute gather below).
  void write_range(cluster::NodeId node, std::uint64_t key,
                   std::uint64_t full_size, std::uint64_t offset,
                   std::span<const std::uint8_t> data) {
    CAR_CHECK(offset + data.size() <= full_size,
              "Cluster::write_buffer_range: slice range exceeds the buffer");
    auto& store = stores[node];
    rs::Chunk evicted;
    {
      util::MutexLock lock(store.mu);
      rs::Chunk& slot = store.buffers[key];
      if (slot.size() != full_size) {
        if (slot.capacity() >= full_size) {
          slot.resize(full_size);
        } else {
          evicted = std::move(slot);
          slot = pool.take(full_size);
        }
      }
      if (!data.empty()) {
        std::memcpy(slot.data() + offset, data.data(), data.size());
      }
    }
    pool.recycle(std::move(evicted));
  }

  bool is_dropped(cluster::NodeId node) const {
    util::MutexLock lock(state_mu);
    return dropped[node];
  }

  void check_alive(cluster::NodeId node, const char* what) const {
    CAR_CHECK_STATE(!is_dropped(node),
                    std::string(what) + ": node " + std::to_string(node) +
                        " has been dropped");
  }
};

Cluster::Cluster(cluster::Topology topology, EmulConfig config)
    : impl_(std::make_unique<Impl>(config.clock_mode)),
      topology_(std::move(topology)),
      config_(config) {
  CAR_CHECK(config_.node_bps > 0, "EmulConfig: node_bps must be positive");
  CAR_CHECK(config_.oversubscription > 0,
            "EmulConfig: oversubscription must be positive");
  CAR_CHECK(config_.page_bytes > 0, "EmulConfig: page_bytes must be > 0");
  CAR_CHECK(config_.max_parallel_steps > 0,
            "EmulConfig: max_parallel_steps must be > 0");
  CAR_CHECK(config_.virtual_gf_bps > 0,
            "EmulConfig: virtual_gf_bps must be positive");
  const std::size_t n = topology_.num_nodes();
  const std::size_t r = topology_.num_racks();
  impl_->stores = std::vector<Impl::NodeStore>(n);
  impl_->cpu = std::vector<util::Mutex>(n);
  impl_->dropped.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    impl_->node_up.push_back(std::make_unique<SerialLink>(config_.node_bps));
    impl_->node_down.push_back(std::make_unique<SerialLink>(config_.node_bps));
  }
  for (std::size_t i = 0; i < r; ++i) {
    const double rack_bps =
        config_.rack_link_bps
            ? *config_.rack_link_bps
            : static_cast<double>(topology_.nodes_in_rack_count(i)) *
                  config_.node_bps / config_.oversubscription;
    impl_->rack_up.push_back(std::make_unique<SerialLink>(rack_bps));
    impl_->rack_down.push_back(std::make_unique<SerialLink>(rack_bps));
  }
}

Cluster::~Cluster() = default;

EmulClock& Cluster::clock() noexcept { return impl_->clock; }

void Cluster::store_chunk(cluster::NodeId node, cluster::StripeId stripe,
                          std::size_t chunk_index, rs::Chunk data) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::store_chunk: bad node id");
  }
  impl_->check_alive(node, "Cluster::store_chunk");
  impl_->put(node, chunk_key(stripe, chunk_index), std::move(data));
}

const rs::Chunk* Cluster::find_chunk(cluster::NodeId node,
                                     cluster::StripeId stripe,
                                     std::size_t chunk_index) const {
  if (node >= topology_.num_nodes()) return nullptr;
  return impl_->find(node, chunk_key(stripe, chunk_index));
}

const rs::Chunk* Cluster::find_step_output(cluster::NodeId node,
                                           std::size_t step_id) const {
  if (node >= topology_.num_nodes()) return nullptr;
  return impl_->find(node, step_key(step_id));
}

const rs::Chunk* Cluster::find_buffer(cluster::NodeId node,
                                      const recovery::BufferRef& ref) const {
  if (node >= topology_.num_nodes()) return nullptr;
  return impl_->find(node, key_of(ref));
}

void Cluster::put_buffer(cluster::NodeId node, const recovery::BufferRef& ref,
                         rs::Chunk data) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::put_buffer: bad node id");
  }
  impl_->check_alive(node, "Cluster::put_buffer");
  impl_->put(node, key_of(ref), std::move(data));
}

void Cluster::write_buffer_range(cluster::NodeId node,
                                 const recovery::BufferRef& ref,
                                 std::uint64_t full_size, std::uint64_t offset,
                                 std::span<const std::uint8_t> data) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::write_buffer_range: bad node id");
  }
  impl_->check_alive(node, "Cluster::write_buffer_range");
  impl_->write_range(node, key_of(ref), full_size, offset, data);
}

util::BufferPool& Cluster::buffer_pool() noexcept { return impl_->pool; }

void Cluster::erase_node(cluster::NodeId node) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::erase_node: bad node id");
  }
  auto& store = impl_->stores[node];
  std::vector<rs::Chunk> evicted;
  {
    util::MutexLock lock(store.mu);
    evicted.reserve(store.buffers.size());
    for (auto& [key, buf] : store.buffers) evicted.push_back(std::move(buf));
    store.buffers.clear();
  }
  for (auto& buf : evicted) impl_->pool.recycle(std::move(buf));
}

void Cluster::drop_node(cluster::NodeId node) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::drop_node: bad node id");
  }
  {
    util::MutexLock lock(impl_->state_mu);
    const auto it = impl_->guards.find(node);
    if (it != impl_->guards.end()) {
      CAR_CHECK_FAIL(
          "Cluster::drop_node: refusing to drop node " +
          std::to_string(node) +
          " — it is a guarded replacement target (generation " +
          std::to_string(it->second.generation) +
          "); a recovery destination cannot fail mid-plan, even one from an "
          "earlier re-plan generation whose published outputs are still "
          "live — choose a fresh replacement and re-plan instead");
    }
    if (impl_->dropped[node]) return;  // idempotent
    impl_->dropped[node] = true;
  }
  impl_->drop_epoch.fetch_add(1, std::memory_order_release);
  erase_node(node);
}

bool Cluster::is_dropped(cluster::NodeId node) const {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::is_dropped: bad node id");
  }
  return impl_->is_dropped(node);
}

std::uint64_t Cluster::add_replacement_guard(cluster::NodeId node) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::add_replacement_guard: bad node id");
  }
  util::MutexLock lock(impl_->state_mu);
  CAR_CHECK(!impl_->dropped[node],
            "Cluster::add_replacement_guard: node " + std::to_string(node) +
                " has been dropped — a dead node cannot serve as a recovery "
                "destination");
  auto& entry = impl_->guards[node];
  if (entry.count == 0) entry.generation = ++impl_->guard_generations;
  ++entry.count;
  return entry.generation;
}

void Cluster::remove_replacement_guard(cluster::NodeId node) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::remove_replacement_guard: bad node id");
  }
  util::MutexLock lock(impl_->state_mu);
  const auto it = impl_->guards.find(node);
  CAR_CHECK(it != impl_->guards.end(),
            "Cluster::remove_replacement_guard: node " + std::to_string(node) +
                " holds no replacement guard");
  if (--it->second.count == 0) impl_->guards.erase(it);
}

std::vector<cluster::NodeId> Cluster::guarded_replacements() const {
  util::MutexLock lock(impl_->state_mu);
  std::vector<cluster::NodeId> out;
  out.reserve(impl_->guards.size());
  for (const auto& [node, entry] : impl_->guards) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

void Cluster::clear_step_outputs() {
  for (auto& store : impl_->stores) {
    std::vector<rs::Chunk> evicted;
    {
      util::MutexLock lock(store.mu);
      for (auto& [key, buf] : store.buffers) {
        if ((key & kStepBit) != 0) evicted.push_back(std::move(buf));
      }
      std::erase_if(store.buffers,
                    [](const auto& kv) { return (kv.first & kStepBit) != 0; });
    }
    for (auto& buf : evicted) impl_->pool.recycle(std::move(buf));
  }
}

LinkPath Cluster::path(cluster::NodeId src, cluster::NodeId dst) const {
  if (src >= topology_.num_nodes() || dst >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::path: bad node id");
  }
  if (src == dst) return LinkPath{};
  const auto src_rack = topology_.rack_of(src);
  const auto dst_rack = topology_.rack_of(dst);
  std::vector<SerialLink*> hops;
  hops.push_back(impl_->node_up[src].get());
  if (src_rack != dst_rack) {
    hops.push_back(impl_->rack_up[src_rack].get());
    hops.push_back(impl_->rack_down[dst_rack].get());
  }
  hops.push_back(impl_->node_down[dst].get());
  return LinkPath{std::move(hops)};
}

SerialLink& Cluster::node_up_link(cluster::NodeId node) {
  return *impl_->node_up.at(node);
}
SerialLink& Cluster::node_down_link(cluster::NodeId node) {
  return *impl_->node_down.at(node);
}
SerialLink& Cluster::rack_up_link(cluster::RackId rack) {
  return *impl_->rack_up.at(rack);
}
SerialLink& Cluster::rack_down_link(cluster::RackId rack) {
  return *impl_->rack_down.at(rack);
}

std::uint64_t Cluster::stripe_seed(std::uint64_t seed,
                                   cluster::StripeId stripe) noexcept {
  // splitmix64 finaliser over the stripe id, xored into the run seed: good
  // avalanche, and stripe s's stream is independent of every other stripe's.
  std::uint64_t x =
      static_cast<std::uint64_t>(stripe) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return seed ^ (x ^ (x >> 31));
}

std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>>
Cluster::populate_sampled(const cluster::Placement& placement,
                          const rs::Code& code, std::uint64_t chunk_size,
                          std::uint64_t seed,
                          std::span<const cluster::StripeId> stripes) {
  CAR_CHECK(chunk_size > 0,
            "Cluster::populate_sampled: chunk_size must be > 0");
  std::unordered_map<cluster::StripeId, std::vector<rs::Chunk>> originals;
  originals.reserve(stripes.size());
  for (const cluster::StripeId s : stripes) {
    CAR_CHECK(s < placement.num_stripes(),
              "Cluster::populate_sampled: stripe id outside the placement");
    if (originals.contains(s)) continue;
    util::Rng rng(stripe_seed(seed, s));
    std::vector<rs::Chunk> data(code.k(), rs::Chunk(chunk_size));
    for (auto& chunk : data) rng.fill_bytes(chunk);
    std::vector<rs::ChunkView> views(data.begin(), data.end());
    auto stripe = code.encode_stripe(views);
    for (std::size_t c = 0; c < stripe.size(); ++c) {
      store_chunk(placement.node_of(s, c), s, c, stripe[c]);
    }
    originals.emplace(s, std::move(stripe));
  }
  return originals;
}

std::vector<std::vector<rs::Chunk>> Cluster::populate(
    const cluster::Placement& placement, const rs::Code& code,
    std::uint64_t chunk_size, util::Rng& rng) {
  CAR_CHECK(chunk_size > 0, "Cluster::populate: chunk_size must be > 0");
  std::vector<std::vector<rs::Chunk>> originals;
  originals.reserve(placement.num_stripes());
  for (cluster::StripeId s = 0; s < placement.num_stripes(); ++s) {
    std::vector<rs::Chunk> data(code.k(), rs::Chunk(chunk_size));
    for (auto& chunk : data) rng.fill_bytes(chunk);
    std::vector<rs::ChunkView> views(data.begin(), data.end());
    auto stripe = code.encode_stripe(views);
    for (std::size_t c = 0; c < stripe.size(); ++c) {
      store_chunk(placement.node_of(s, c), s, c, stripe[c]);
    }
    originals.push_back(std::move(stripe));
  }
  return originals;
}

ExecutionReport Cluster::execute(const recovery::RecoveryPlan& plan) {
  // Degenerate lowering: one slice per step with identical ids, deps, and
  // bytes — the sliced core below then performs the exact same computation
  // a chunk-granular executor would.
  return execute(recovery::slice_plan(
      plan, std::max<std::uint64_t>(plan.chunk_size, 1)));
}

ExecutionReport Cluster::execute(const recovery::SlicePlan& plan) {
  const std::size_t n_steps = plan.steps.size();
  ExecutionReport report;
  report.per_rack_cross_bytes.assign(topology_.num_racks(), 0);
  if (n_steps == 0) return report;

  const auto indegrees =
      recovery::step_indegrees(std::span<const PlanStep>(plan.steps));
  const auto dependents =
      recovery::step_dependents(std::span<const PlanStep>(plan.steps));
  const bool virtual_time = config_.clock_mode == ClockMode::kVirtual;
  EmulClock& clock = impl_->clock;
  util::Mutex report_mu;

  // The recovery destination must outlive the plan: guard it so a
  // concurrent drop_node(replacement) fails loudly instead of racing the
  // final publish.  Counted, so an outer runtime's guard survives.
  // Released on every exit path.
  struct GuardScope {
    Cluster* cluster;
    cluster::NodeId node;
    ~GuardScope() { cluster->remove_replacement_guard(node); }
  };
  add_replacement_guard(plan.replacement);
  GuardScope guard_scope{this, plan.replacement};
  impl_->check_alive(plan.replacement, "Cluster::execute: replacement");

  auto run_transfer = [&](const PlanStep& step, const SliceInfo& slice) {
    impl_->check_alive(step.src, "Cluster::execute: transfer source");
    impl_->check_alive(step.dst, "Cluster::execute: transfer destination");
    const rs::Chunk* src_buf = impl_->find(step.src, key_of(step.payload));
    CAR_CHECK_STATE(src_buf != nullptr,
                    "Cluster::execute: transfer payload missing on source "
                    "node");
    // Buffer-size contract: the plan's declared chunk size must match the
    // actual payload, or every byte of traffic accounting downstream lies
    // (and the slice grid would read past the buffer).
    CAR_CHECK_STATE(src_buf->size() == plan.chunk_size,
                    "Cluster::execute: transfer size mismatch: plan declares " +
                        std::to_string(plan.chunk_size) +
                        " bytes but payload holds " +
                        std::to_string(src_buf->size()));
    // Stage the slice through a pooled lease — the wire payload.  Reading
    // slice s here is safe against concurrent writers: they only touch
    // other slices' (disjoint) ranges, and a buffer is never re-materialised
    // once established at full size (see Impl::write_range).
    util::BufferLease wire = impl_->pool.acquire(
        static_cast<std::size_t>(slice.length));
    std::memcpy(wire.data(), src_buf->data() + slice.offset, slice.length);
    if (step.src == step.dst) {
      // Loopback: the buffer never leaves the node, so no link is reserved
      // and no traffic is reported.  The staged copy makes the self-write
      // well-defined.
      impl_->write_range(step.dst, key_of(step.payload), plan.chunk_size,
                         slice.offset, {wire.data(), wire.size()});
      return;
    }
    if (!virtual_time) {
      clock.sleep_until(path(step.src, step.dst)
                            .reserve(clock.now(), step.bytes,
                                     config_.page_bytes));
    }
    impl_->write_range(step.dst, key_of(step.payload), plan.chunk_size,
                       slice.offset, {wire.data(), wire.size()});

    const std::uint64_t moved = slice.length;  // == step.bytes by the grid
    const auto src_rack = topology_.rack_of(step.src);
    util::MutexLock lock(report_mu);
    if (src_rack != topology_.rack_of(step.dst)) {
      report.cross_rack_bytes += moved;
      report.per_rack_cross_bytes[src_rack] += moved;
    } else {
      report.intra_rack_bytes += moved;
    }
  };

  auto run_compute = [&](const PlanStep& step, const SliceInfo& slice) {
    impl_->check_alive(step.node, "Cluster::execute: compute node");
    util::MutexLock cpu_lock(impl_->cpu[step.node]);

    // Gather input buffers.  unordered_map references are stable under
    // concurrent inserts of other keys (guarded by the store mutex inside
    // find), and nothing erases or re-materialises buffers during execution.
    std::vector<const rs::Chunk*> inputs;
    inputs.reserve(step.inputs.size());
    for (const auto& in : step.inputs) {
      const rs::Chunk* buf = impl_->find(step.node, key_of(in.buffer));
      CAR_CHECK_STATE(buf != nullptr,
                      "Cluster::execute: compute input missing on node");
      inputs.push_back(buf);
    }
    // The measured window covers the finite-field work — the paper's
    // "computation time" is the decoding arithmetic, not buffer management
    // (staging comes from the pool, outside the window).  The step contract
    // and the fused combine live in the shared helper, which
    // inject/driver.cc executes identically.  The output is staged in a
    // lease (the kernels' combine output may not alias its inputs) and then
    // assembled into the base step's output buffer.
    util::BufferLease out = impl_->pool.acquire(
        static_cast<std::size_t>(slice.length));
    const auto t0 = std::chrono::steady_clock::now();
    recovery::execute_compute_slice(step, inputs, plan.chunk_size,
                                    slice.offset, {out.data(), out.size()},
                                    "Cluster::execute");
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    impl_->write_range(step.node, step_key(slice.base_step), plan.chunk_size,
                       slice.offset, {out.data(), out.size()});

    // Virtual mode charges modelled compute time in the timing pass instead
    // of the (nondeterministic) measured duration.
    if (virtual_time) return;
    util::MutexLock lock(report_mu);
    report.compute_s += dt.count();
    if (step.node == plan.replacement) {
      report.replacement_compute_s += dt.count();
    }
  };

  // Pass 1 — execute the DAG on the bounded worker pool: real bytes move,
  // real GF kernels run.  In real-time mode transfers also reserve links
  // and sleep, so this pass *is* the measurement; in virtual mode nothing
  // sleeps and timing is replayed deterministically below.  A node dropped
  // mid-execution bumps the drop epoch; the pool notices before issuing the
  // next step and aborts.
  Executor executor(config_.max_parallel_steps);
  const std::uint64_t epoch_at_start =
      impl_->drop_epoch.load(std::memory_order_acquire);
  const double t_start = clock.now();
  executor.run(
      n_steps, indegrees, dependents,
      [&](std::size_t id) {
        const PlanStep& step = plan.steps[id];
        const SliceInfo& slice = plan.info[id];
        if (step.kind == StepKind::kTransfer) {
          run_transfer(step, slice);
        } else {
          run_compute(step, slice);
        }
      },
      [&] {
        return impl_->drop_epoch.load(std::memory_order_acquire) !=
               epoch_at_start;
      });

  if (virtual_time) {
    // Pass 2 — deterministic timing replay.  Steps are processed in
    // (virtual start time, id) order from a min-heap, so link reservations
    // happen in a reproducible sequence regardless of how the worker pool
    // interleaved the byte movement above.  Transfers reserve the same
    // page-wise path as real-time mode; computes are charged
    // step.bytes / virtual_gf_bps.
    auto pending = indegrees;
    std::vector<double> start_at(n_steps, t_start);
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (std::size_t id = 0; id < n_steps; ++id) {
      if (pending[id] == 0) ready.emplace(t_start, id);
    }
    double end = t_start;
    while (!ready.empty()) {
      const auto [at, id] = ready.top();
      ready.pop();
      const PlanStep& step = plan.steps[id];
      double finish = at;
      if (step.kind == StepKind::kTransfer) {
        if (step.src != step.dst) {
          finish = path(step.src, step.dst)
                       .reserve(at, step.bytes, config_.page_bytes);
        }
      } else {
        const double dt =
            static_cast<double>(step.bytes) / config_.virtual_gf_bps;
        finish = at + dt;
        report.compute_s += dt;
        if (step.node == plan.replacement) report.replacement_compute_s += dt;
      }
      end = std::max(end, finish);
      for (const std::size_t dep : dependents[id]) {
        start_at[dep] = std::max(start_at[dep], finish);
        if (--pending[dep] == 0) ready.emplace(start_at[dep], dep);
      }
    }
    clock.advance_to(end);
    report.wall_s = end - t_start;
  } else {
    report.wall_s = clock.now() - t_start;
  }

  // Publish recovered chunks as regular chunk replicas on the replacement.
  // Output ids are *base* step ids — all slices of the producing step have
  // completed (the DAG drained), so the assembled buffer is whole.  The
  // replica copy is drawn from the pool like every other buffer.
  for (const auto& out : plan.outputs) {
    const rs::Chunk* buf = impl_->find(plan.replacement, step_key(out.step_id));
    CAR_CHECK_STATE(buf != nullptr,
                    "Cluster::execute: recovered chunk missing");
    rs::Chunk copy = impl_->pool.take(buf->size());
    if (!buf->empty()) std::memcpy(copy.data(), buf->data(), buf->size());
    impl_->put(plan.replacement, chunk_key(out.stripe, out.chunk_index),
               std::move(copy));
  }
  return report;
}

ExecutionReport Cluster::execute_arena(const recovery::PlanArena& plan,
                                       const ArenaExecOptions& options) {
  return execute_arena_impl(plan, options, nullptr);
}

ExecutionReport Cluster::execute_arena_streaming(
    const recovery::PlanArena& plan, const ArenaExecOptions& options,
    ArenaStreamFeed& feed) {
  // Streaming interleaves with the producer through the watermark; the heap
  // engine is kept as the barrier-mode reference implementation and gains
  // nothing from overlap, so it is not wired up here.
  CAR_CHECK(options.replay_engine == ReplayEngine::kCalendar,
            "Cluster::execute_arena_streaming: streaming requires the "
            "calendar replay engine");
  return execute_arena_impl(plan, options, &feed);
}

ExecutionReport Cluster::execute_arena_impl(const recovery::PlanArena& plan,
                                            const ArenaExecOptions& options,
                                            ArenaStreamFeed* feed) {
  // A wall-clock pass cannot skip payload movement without changing what it
  // measures, and the sharded payload pass relies on the timing replay for
  // determinism — so the arena path is virtual-clock only.
  impl_->clock.require_virtual("Cluster::execute_arena");
  CAR_CHECK(options.shards >= 1,
            "Cluster::execute_arena: shards must be >= 1");
  CAR_CHECK(options.replay_shards >= 1,
            "Cluster::execute_arena: replay_shards must be >= 1");
  const bool streaming = feed != nullptr;

  const std::uint64_t n_base = plan.num_base_steps();
  ExecutionReport report;
  report.per_rack_cross_bytes.assign(topology_.num_racks(), 0);
  if (n_base == 0) return report;
  if (!streaming) {
    CAR_CHECK(options.shards == 1 || plan.stripe_closed(),
              "Cluster::execute_arena: sharded execution requires a "
              "stripe-closed plan (windowed schedules add cross-stripe deps; "
              "run them with shards == 1)");
    CAR_CHECK(options.replay_shards == 1 || plan.stripe_closed(),
              "Cluster::execute_arena: sharded replay requires a "
              "stripe-closed plan (windowed schedules add cross-stripe deps; "
              "run them with replay_shards == 1)");
  }
  // Streaming defers the closure CHECK until the producer finishes: the
  // flag itself is being written during appends.  The producer contract —
  // publish whole stripes of a stripe-closed plan only — is re-CHECKed
  // after the workers join.

  EmulClock& clock = impl_->clock;
  struct GuardScope {
    Cluster* cluster;
    cluster::NodeId node;
    ~GuardScope() { cluster->remove_replacement_guard(node); }
  };
  add_replacement_guard(plan.replacement());
  GuardScope guard_scope{this, plan.replacement()};
  impl_->check_alive(plan.replacement(),
                     "Cluster::execute_arena: replacement");

  std::vector<cluster::StripeId> sampled = options.sampled_stripes;
  std::sort(sampled.begin(), sampled.end());
  auto is_real = [&](cluster::StripeId s) {
    return !options.metadata_only ||
           std::binary_search(sampled.begin(), sampled.end(), s);
  };

  // Liveness snapshot: shards check it lock-free per step; a node dropped
  // *during* execution bumps the drop epoch instead, which aborts the run
  // exactly like execute()'s pool cancellation.
  std::vector<char> dead;
  {
    util::MutexLock lock(impl_->state_mu);
    dead.assign(impl_->dropped.begin(), impl_->dropped.end());
  }
  auto check_alive_fast = [&](cluster::NodeId nd, const char* what) {
    CAR_CHECK_STATE(dead[nd] == 0, std::string(what) + ": node " +
                                       std::to_string(nd) +
                                       " has been dropped");
  };

  const std::uint64_t num_slices = plan.num_slices();
  const std::uint64_t chunk = plan.chunk_size();
  const std::uint64_t epoch_at_start =
      impl_->drop_epoch.load(std::memory_order_acquire);
  const double t_start = clock.now();
  // The lock-free replay window compares event times as IEEE-754 bit
  // patterns (see time_bits), which is order-preserving only for
  // non-negative times.  Always true — the virtual clock starts at 0 and
  // never runs backwards — but the invariant is load-bearing, so CHECK it.
  CAR_CHECK_STATE(t_start >= 0.0,
                  "Cluster::execute_arena: negative virtual clock");

  // Phase 1 — payload movement and byte accounting, sharded by stripe.
  // Each shard walks the arena in id order; forward deps plus stripe
  // closure (or shards == 1) guarantee every dependency a step needs was
  // produced earlier in the same walk.  Accounting goes to per-shard
  // accumulators merged in shard order below, so totals never depend on
  // thread interleaving.
  struct ShardTotals {
    std::uint64_t cross = 0;
    std::uint64_t intra = 0;
    std::vector<std::uint64_t> per_rack;
  };
  std::vector<ShardTotals> totals(options.shards);
  for (auto& t : totals) t.per_rack.assign(topology_.num_racks(), 0);

  util::Mutex error_mu;
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  auto record_failure = [&]() {
    failed.store(true, std::memory_order_release);
    util::MutexLock lock(error_mu);
    if (!error) error = std::current_exception();
  };

  auto run_shard = [&](std::size_t shard) {
    try {
      ShardTotals& acc = totals[shard];
      // Barrier mode sees every row up front; streaming chases the
      // producer's watermark, spinning out the gaps.
      std::uint64_t limit = streaming ? feed->published() : n_base;
      std::size_t idle = 0;
      for (std::uint64_t base = 0; base < n_base; ++base) {
        while (base == limit) {
          if (failed.load(std::memory_order_acquire)) return;
          const std::uint64_t published = feed->published();
          if (published > limit) {
            limit = published;
            idle = 0;
            break;
          }
          CAR_CHECK_STATE(!feed->closed() || feed->published() >= n_base,
                          "Cluster::execute_arena_streaming: producer closed "
                          "before publishing every base step");
          relax_cpu(idle++);
        }
        if (static_cast<std::uint64_t>(plan.stripe(base)) % options.shards !=
            shard) {
          continue;
        }
        if (failed.load(std::memory_order_acquire)) return;
        CAR_CHECK_STATE(impl_->drop_epoch.load(std::memory_order_acquire) ==
                            epoch_at_start,
                        "Cluster::execute_arena: node dropped "
                        "mid-execution; aborting plan");
        if (plan.kind(base) == StepKind::kTransfer) {
          const cluster::NodeId src = plan.src(base);
          const cluster::NodeId dst = plan.dst(base);
          check_alive_fast(src, "Cluster::execute_arena: transfer source");
          check_alive_fast(dst,
                           "Cluster::execute_arena: transfer destination");
          if (src != dst) {
            const auto src_rack = topology_.rack_of(src);
            if (src_rack != topology_.rack_of(dst)) {
              acc.cross += chunk;
              acc.per_rack[src_rack] += chunk;
            } else {
              acc.intra += chunk;
            }
          }
          if (!is_real(plan.stripe(base))) continue;
          const std::uint64_t key = key_of(plan.payload(base));
          const rs::Chunk* src_buf = impl_->find(src, key);
          CAR_CHECK_STATE(src_buf != nullptr,
                          "Cluster::execute_arena: transfer payload missing "
                          "on source node");
          CAR_CHECK_STATE(
              src_buf->size() == chunk,
              "Cluster::execute_arena: transfer size mismatch: plan "
              "declares " +
                  std::to_string(chunk) + " bytes but payload holds " +
                  std::to_string(src_buf->size()));
          // One whole-chunk staged copy: the slices of a transfer carry
          // disjoint ranges of these same bytes, so slice-wise movement
          // composes to exactly this (and the timing replay below still
          // reserves links slice by slice).
          util::BufferLease wire =
              impl_->pool.acquire(static_cast<std::size_t>(chunk));
          std::memcpy(wire.data(), src_buf->data(),
                      static_cast<std::size_t>(chunk));
          impl_->write_range(dst, key, chunk, 0, {wire.data(), wire.size()});
        } else {
          const cluster::NodeId node = plan.node(base);
          check_alive_fast(node, "Cluster::execute_arena: compute node");
          if (!is_real(plan.stripe(base))) continue;
          util::MutexLock cpu_lock(impl_->cpu[node]);
          std::vector<const rs::Chunk*> inputs;
          const std::size_t n_in = plan.num_inputs(base);
          inputs.reserve(n_in);
          for (std::size_t i = 0; i < n_in; ++i) {
            const rs::Chunk* buf =
                impl_->find(node, key_of(plan.input(base, i).buffer));
            CAR_CHECK_STATE(buf != nullptr,
                            "Cluster::execute_arena: compute input missing "
                            "on node");
            inputs.push_back(buf);
          }
          for (std::uint64_t s = 0; s < num_slices; ++s) {
            // Real-byte stripes are the sampled few, so materialising the
            // sliced step here stays off the metadata hot path.
            const PlanStep step = plan.step(plan.sliced_id(base, s));
            util::BufferLease out = impl_->pool.acquire(
                static_cast<std::size_t>(plan.slice_length(s)));
            recovery::execute_compute_slice(step, inputs, chunk,
                                            plan.slice_offset(s),
                                            {out.data(), out.size()},
                                            "Cluster::execute_arena");
            impl_->write_range(node, step_key(base), chunk,
                               plan.slice_offset(s),
                               {out.data(), out.size()});
          }
        }
      }
    } catch (...) {
      record_failure();
    }
  };

  // Phase-1 workers.  Barrier mode runs them to completion here; streaming
  // spawns them and lets them overlap the replay below (payload movement
  // and the timing replay touch disjoint state — node buffers vs. links).
  std::vector<std::thread> payload_workers;
  if (!streaming && options.shards == 1) {
    run_shard(0);
  } else {
    payload_workers.reserve(options.shards);
    for (std::size_t w = 0; w < options.shards; ++w) {
      payload_workers.emplace_back(run_shard, w);
    }
  }
  if (!streaming) {
    for (auto& worker : payload_workers) worker.join();
    payload_workers.clear();
    if (error) std::rethrow_exception(error);
  }

  // Phase 2 — deterministic timing replay over the sliced id grid: the
  // identical (start time, id) min-queue walk execute() runs, driven from
  // the columns instead of materialised steps.
  //
  // The pop stream is lexicographically monotone in (time, id): every
  // dependent inserted while processing event (t, id) has start >= finish
  // >= t and — forward deps — a strictly larger base step, hence a larger
  // sliced id at the same slice.  (That monotonicity is also what lets the
  // calendar queue below run at O(1) amortised per event.)  With a
  // stripe-closed plan the stream further decomposes into independent
  // per-stripe (and so per-shard) monotone streams, which is what lets
  // replay_shards > 1 reproduce the sequential walk exactly: each shard
  // drains its own queue only while its head is the global lexicographic
  // minimum of all shard heads (the owner-advances safe window), so
  // stateful link reservations and floating-point accumulation commit in
  // the global merge order.
  const std::uint64_t n_sliced = plan.num_sliced_steps();
  std::vector<std::uint32_t> pending(n_sliced, 0);
  if (!streaming) {
    for (std::uint64_t base = 0; base < n_base; ++base) {
      const auto degree = static_cast<std::uint32_t>(plan.deps(base).size());
      for (std::uint64_t s = 0; s < num_slices; ++s) {
        pending[plan.sliced_id(base, s)] = degree;
      }
    }
  }
  std::vector<double> start_at(n_sliced, t_start);
  double end = t_start;

  // Commit one transfer's link reservations.  Resolves the hop list on the
  // stack (the same links Cluster::path returns, without the per-event
  // vector) and reserves each hop's pages under a single lock acquisition:
  // per hop, the page sequence is exactly what the page-major
  // LinkPath::reserve loop would commit — hop states are mutually
  // independent, so reordering pages ACROSS hops cannot change any hop's
  // arithmetic — and the max of per-hop finishes equals the max over all
  // (hop, page) reservations because each hop's finishes are monotone.
  // Bit-identical, 4 lock round-trips instead of 4 * ceil(bytes / page).
  auto reserve_transfer = [&](std::uint64_t base, std::uint64_t slice,
                              double at) -> double {
    const cluster::NodeId src = plan.src(base);
    const cluster::NodeId dst = plan.dst(base);
    SerialLink* hops[LinkPath::kMaxHops];
    std::size_t n_hops = 0;
    hops[n_hops++] = impl_->node_up[src].get();
    const auto src_rack = topology_.rack_of(src);
    const auto dst_rack = topology_.rack_of(dst);
    if (src_rack != dst_rack) {
      hops[n_hops++] = impl_->rack_up[src_rack].get();
      hops[n_hops++] = impl_->rack_down[dst_rack].get();
    }
    hops[n_hops++] = impl_->node_down[dst].get();
    const std::uint64_t bytes = plan.step_bytes(base, slice);
    double finish = at;
    for (std::size_t h = 0; h < n_hops; ++h) {
      finish = std::max(finish,
                        hops[h]->reserve_pages(at, bytes, config_.page_bytes));
    }
    return finish;
  };

  // Process one popped event; dependents (same stripe by closure, so the
  // caller's own queue under sharded replay) are pushed onto `queue`.
  auto process_event = [&](double at, std::uint64_t id, auto& queue) {
    const std::uint64_t base = id / num_slices;
    const std::uint64_t slice = id % num_slices;
    double finish = at;
    if (plan.kind(base) == StepKind::kTransfer) {
      if (plan.src(base) != plan.dst(base)) {
        finish = reserve_transfer(base, slice, at);
      }
    } else {
      const double dt = static_cast<double>(plan.step_bytes(base, slice)) /
                        config_.virtual_gf_bps;
      finish = at + dt;
      report.compute_s += dt;
      if (plan.node(base) == plan.replacement()) {
        report.replacement_compute_s += dt;
      }
    }
    end = std::max(end, finish);
    for (const std::uint64_t dep_base : plan.dependents(base)) {
      const std::uint64_t did = plan.sliced_id(dep_base, slice);
      start_at[did] = std::max(start_at[did], finish);
      if (--pending[did] == 0) replay_push(queue, start_at[did], did);
    }
  };

  const std::size_t rshards = options.replay_shards;

  // Lock-free owner-advances window over per-shard calendar queues.  Each
  // shard owns one cache-line slot holding its published frontier — the
  // (time, id) key of its next event, as two atomic words — and drains its
  // queue only while its head is strictly below the minimum of every other
  // slot (and the stream cap), which serialises the stateful work in
  // exactly the global (time, id) order.  The slots replace the heap
  // engine's global mutex + condvar handoffs, whose wakeup latency
  // dominated sharded replay.
  //
  // Publication protocol: the owner stores id then time, both release; a
  // peer loads time then id, both acquire.  Because time is written last
  // and read first, a torn read can only pair an older time with a
  // same-or-newer id, and since a shard's frontier only ever increases,
  // such a pair never exceeds the owner's latest published key — every
  // bound a peer derives is conservative.  Visibility rides the same pair:
  // whichever publish the id load observed release-precedes it, so all
  // link reservations and accumulator writes the owner committed below
  // that key happen-before the peer's subsequent drain.  Draining is
  // mutually exclusive without a lock: were shards A and B draining
  // concurrently, A.top < (B's slot) <= B.top and B.top < (A's slot)
  // <= A.top — a contradiction (slots trail their owners' monotone tops).
  auto run_calendar_replay = [&](std::vector<CalendarQueue>& queues) {
    const std::size_t nq = queues.size();
    const std::uint64_t t0_bits = time_bits(t_start);
    std::vector<ReplayTopSlot> slots(nq);
    for (auto& slot : slots) {
      // (t_start, 0) lower-bounds every event, so no shard can overtake a
      // peer whose real frontier has not been published yet.
      slot.time.store(t0_bits, std::memory_order_relaxed);
      slot.id.store(0, std::memory_order_relaxed);
    }
    auto worker = [&](std::size_t shard) {
      CalendarQueue& queue = queues[shard];
      ReplayTopSlot& slot = slots[shard];
      std::uint64_t published_t = t0_bits;
      std::uint64_t published_i = 0;
      auto publish = [&](std::uint64_t tb, std::uint64_t ib) {
        if (tb == published_t && ib == published_i) return;
        slot.id.store(ib, std::memory_order_release);
        slot.time.store(tb, std::memory_order_release);
        published_t = tb;
        published_i = ib;
      };
      std::uint64_t ingested = 0;
      std::size_t idle = 0;
      // Drain-frontier watchdog: the shard's pop stream must be monotone in
      // (time, id) — the safe window, the slot publication protocol, and
      // the stateful commit order all assume it.  A queue that ever
      // surfaces an event behind the frontier (e.g. by misrouting a
      // sub-rung insert) would silently corrupt the replay, so fail fast.
      std::uint64_t drained_t = t0_bits;
      std::uint64_t drained_i = 0;
      try {
        for (;;) {
          if (failed.load(std::memory_order_acquire)) break;
          // Streaming: adopt newly published stripes (seed their pending
          // counters and zero-indegree events), then cap the window at the
          // watermark — every event of a not-yet-published row sorts at or
          // after (t_start, published * num_slices) because rows publish in
          // base-id order.
          std::uint64_t cap_t = kInfTimeBits;
          std::uint64_t cap_i = kDoneId;
          if (streaming) {
            std::uint64_t progress = feed->published();
            const bool finished = feed->closed();
            if (finished) progress = feed->published();
            CAR_CHECK_STATE(!finished || progress >= n_base,
                            "Cluster::execute_arena_streaming: producer "
                            "closed before publishing every base step");
            for (std::uint64_t base = ingested; base < progress; ++base) {
              if (static_cast<std::uint64_t>(plan.stripe(base)) % nq !=
                  shard) {
                continue;
              }
              const auto degree =
                  static_cast<std::uint32_t>(plan.deps(base).size());
              for (std::uint64_t s = 0; s < num_slices; ++s) {
                const std::uint64_t sid = plan.sliced_id(base, s);
                pending[sid] = degree;
                if (degree == 0) queue.push(t_start, sid);
              }
            }
            ingested = progress;
            if (!finished) {
              cap_t = t0_bits;
              cap_i = progress * num_slices;
            }
          }
          // Publish this shard's frontier: own head, capped by the stream
          // watermark (events of unpublished rows may land in any shard).
          std::uint64_t my_t = cap_t;
          std::uint64_t my_i = cap_i;
          if (!queue.empty()) {
            const CalendarQueue::Entry& head = queue.top();
            const std::uint64_t head_t = time_bits(head.time);
            if (key_less(head_t, head.key, my_t, my_i)) {
              my_t = head_t;
              my_i = head.key;
            }
          }
          publish(my_t, my_i);
          if (queue.empty() && cap_t == kInfTimeBits) break;
          // Safe window: strictly below every peer's published frontier
          // and below the stream cap.
          std::uint64_t bound_t = cap_t;
          std::uint64_t bound_i = cap_i;
          for (std::size_t other = 0; other < nq; ++other) {
            if (other == shard) continue;
            const std::uint64_t other_t =
                slots[other].time.load(std::memory_order_acquire);
            const std::uint64_t other_i =
                slots[other].id.load(std::memory_order_acquire);
            if (key_less(other_t, other_i, bound_t, bound_i)) {
              bound_t = other_t;
              bound_i = other_i;
            }
          }
          bool drained = false;
          while (!queue.empty()) {
            const CalendarQueue::Entry& head = queue.top();
            if (!key_less(time_bits(head.time), head.key, bound_t,
                          bound_i)) {
              break;
            }
            const CalendarQueue::Entry event = queue.pop();
            const std::uint64_t event_t = time_bits(event.time);
            CAR_CHECK_STATE(
                !key_less(event_t, event.key, drained_t, drained_i),
                "Cluster::execute_arena: calendar replay shard popped an "
                "event behind its drain frontier");
            drained_t = event_t;
            drained_i = event.key;
            process_event(event.time, event.key, queue);
            drained = true;
          }
          if (drained) {
            idle = 0;
          } else {
            relax_cpu(idle++);
          }
        }
      } catch (...) {
        record_failure();
      }
      // Terminal sentinel — also on error, so peers never stall on a dead
      // shard.
      slot.id.store(kDoneId, std::memory_order_release);
      slot.time.store(kInfTimeBits, std::memory_order_release);
    };
    std::vector<std::thread> replay_workers;
    replay_workers.reserve(nq);
    for (std::size_t shard = 0; shard < nq; ++shard) {
      replay_workers.emplace_back(worker, shard);
    }
    for (auto& thread : replay_workers) thread.join();
  };

  if (options.replay_engine == ReplayEngine::kHeap) {
    // The PR-9 reference engine, kept verbatim: one global binary heap, or
    // per-shard heaps merged under a mutex/condvar owner-advances window.
    // The differential tests and the CI scale-smoke diff compare the
    // calendar engine's output against this path bit for bit.
    using Entry = ReplayEntry;
    using Heap = ReplayHeap;
    if (rshards == 1) {
      Heap ready;
      for (std::uint64_t id = 0; id < n_sliced; ++id) {
        if (pending[id] == 0) ready.emplace(t_start, id);
      }
      while (!ready.empty()) {
        const auto [at, id] = ready.top();
        ready.pop();
        process_event(at, id, ready);
      }
    } else {
      std::vector<Heap> heaps(rshards);
      for (std::uint64_t id = 0; id < n_sliced; ++id) {
        if (pending[id] != 0) continue;
        const std::uint64_t base = id / num_slices;
        heaps[static_cast<std::uint64_t>(plan.stripe(base)) % rshards]
            .emplace(t_start, id);
      }
      // Sentinel: a drained shard publishes +inf so it never gates others.
      const Entry done{std::numeric_limits<double>::infinity(),
                       std::numeric_limits<std::uint64_t>::max()};
      std::vector<Entry> tops(rshards, done);
      for (std::size_t shard = 0; shard < rshards; ++shard) {
        if (!heaps[shard].empty()) tops[shard] = heaps[shard].top();
      }
      std::mutex replay_mu;
      std::condition_variable replay_cv;
      std::exception_ptr replay_error;
      bool replay_failed = false;
      auto run_replay_shard = [&](std::size_t shard) {
        Heap& heap = heaps[shard];
        std::unique_lock<std::mutex> lock(replay_mu);
        try {
          for (;;) {
            if (replay_failed || heap.empty()) break;
            // The conservative safe window: drain own events strictly below
            // every other shard's head.  Heads are pairwise distinct (ids
            // are unique), so the shard holding the global minimum never
            // blocks and the protocol cannot deadlock.
            Entry bound = done;
            for (std::size_t other = 0; other < rshards; ++other) {
              if (other != shard) bound = std::min(bound, tops[other]);
            }
            if (tops[shard] < bound) {
              while (!heap.empty() && heap.top() < bound) {
                const auto [at, id] = heap.top();
                heap.pop();
                process_event(at, id, heap);
              }
              tops[shard] = heap.empty() ? done : heap.top();
              replay_cv.notify_all();
            } else {
              replay_cv.wait(lock);
            }
          }
        } catch (...) {
          if (!replay_error) replay_error = std::current_exception();
          replay_failed = true;
        }
        tops[shard] = done;
        replay_cv.notify_all();
      };
      std::vector<std::thread> replay_workers;
      replay_workers.reserve(rshards);
      for (std::size_t shard = 0; shard < rshards; ++shard) {
        replay_workers.emplace_back(run_replay_shard, shard);
      }
      for (auto& worker : replay_workers) worker.join();
      if (replay_error) std::rethrow_exception(replay_error);
    }
  } else if (rshards == 1 && !streaming) {
    // Calendar engine, single shard, fully built plan: a plain drain.
    CalendarQueue ready(static_cast<std::size_t>(n_sliced));
    for (std::uint64_t id = 0; id < n_sliced; ++id) {
      if (pending[id] == 0) ready.push(t_start, id);
    }
    while (!ready.empty()) {
      const CalendarQueue::Entry event = ready.pop();
      process_event(event.time, event.key, ready);
    }
  } else {
    std::vector<CalendarQueue> queues;
    queues.reserve(rshards);
    for (std::size_t q = 0; q < rshards; ++q) {
      queues.emplace_back(static_cast<std::size_t>(n_sliced) / rshards + 1);
    }
    if (!streaming) {
      for (std::uint64_t id = 0; id < n_sliced; ++id) {
        if (pending[id] != 0) continue;
        const std::uint64_t base = id / num_slices;
        queues[static_cast<std::uint64_t>(plan.stripe(base)) % rshards].push(
            t_start, id);
      }
    }
    run_calendar_replay(queues);
  }

  if (streaming) {
    for (auto& worker : payload_workers) worker.join();
  }
  if (error) std::rethrow_exception(error);
  if (streaming) {
    CAR_CHECK(plan.stripe_closed(),
              "Cluster::execute_arena_streaming: streaming execution "
              "requires a stripe-closed plan (the watermark publishes whole "
              "stripes; cross-stripe deps would couple them)");
  }

  for (const ShardTotals& acc : totals) {
    report.cross_rack_bytes += acc.cross;
    report.intra_rack_bytes += acc.intra;
    for (std::size_t r = 0; r < acc.per_rack.size(); ++r) {
      report.per_rack_cross_bytes[r] += acc.per_rack[r];
    }
  }

  clock.advance_to(end);
  report.wall_s = end - t_start;

  // Publish recovered chunks for every stripe that actually carries bytes;
  // metadata-only stripes have nothing to publish (their recovery is
  // accounted, not materialised).
  for (const auto& out : plan.outputs()) {
    if (!is_real(out.stripe)) continue;
    const rs::Chunk* buf =
        impl_->find(plan.replacement(), step_key(out.step_id));
    CAR_CHECK_STATE(buf != nullptr,
                    "Cluster::execute_arena: recovered chunk missing");
    rs::Chunk copy = impl_->pool.take(buf->size());
    if (!buf->empty()) std::memcpy(copy.data(), buf->data(), buf->size());
    impl_->put(plan.replacement(), chunk_key(out.stripe, out.chunk_index),
               std::move(copy));
  }
  return report;
}

}  // namespace car::emul
