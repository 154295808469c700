#include "emul/cluster.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "emul/calendar_queue.h"
#include "emul/step_core.h"
#include "recovery/compute.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace car::emul {

namespace {

using recovery::BufferRef;
using recovery::kMaxComputeInputs;
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

/// Id of entry `index` of the `count` links laid out from `first` in the
/// link table (see Cluster::links); std::out_of_range when index >= count.
LinkId link_id(std::size_t first, std::size_t index, std::size_t count,
               const char* who) {
  if (index >= count) {
    throw std::out_of_range(std::string("Cluster::") + who + ": bad id");
  }
  return static_cast<LinkId>(first + index);
}

/// Rejects an arena row naming a node outside the topology, before any
/// per-node store, liveness slot or link is indexed with it: the endpoints
/// of a transfer, the node of a compute.
void check_row_in_topology(const recovery::PlanArena& plan,
                           std::uint64_t base, std::size_t num_nodes) {
  auto check = [&](cluster::NodeId id, const char* role) {
    CAR_CHECK(id < num_nodes,
              std::string("Cluster::execute_arena: ") + role + " of step " +
                  std::to_string(base) + " is node " + std::to_string(id) +
                  ", outside the " + std::to_string(num_nodes) +
                  "-node topology");
  };
  if (plan.kind(base) == StepKind::kTransfer) {
    check(plan.src(base), "transfer source");
    check(plan.dst(base), "transfer destination");
  } else {
    check(plan.node(base), "compute node");
  }
}

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

// ---- Arena timing replay -------------------------------------------------

/// The fault-free policy of the step engine (emul/step_core.h): transfers
/// reserve the links of cluster.path(src, dst), computes are charged
/// bytes / virtual_gf_bps, and nothing fails.  In streaming mode it stops
/// at the watermark cap.
struct ReplayPolicy {
  const recovery::PlanArena& plan;
  Cluster& cluster;
  std::uint64_t page_bytes;
  double virtual_gf_bps;
  ExecutionReport& report;   // gets the modelled compute time
  double end;                // latest finish
  bool finished = true;      // every row ingested
  CalendarQueue::Entry cap;  // unfinished: first key of an unpublished row

  bool stop_before(const CalendarQueue::Entry& next) const noexcept {
    return !finished && !(next < cap);
  }

  std::optional<double> run(const StepCore<>::Event& event) {
    double finish = event.time;
    const std::uint64_t bytes = plan.step_bytes(event.base, event.slice);
    if (plan.kind(event.base) == StepKind::kTransfer) {
      finish = cluster.path(plan.src(event.base), plan.dst(event.base))
                   .reserve(event.time, bytes, page_bytes);
    } else {
      const double dt = static_cast<double>(bytes) / virtual_gf_bps;
      finish = event.time + dt;
      report.compute_s += dt;
      if (plan.node(event.base) == plan.replacement()) {
        report.replacement_compute_s += dt;
      }
    }
    end = std::max(end, finish);
    return finish;
  }

  static bool stop_after(const StepCore<>::Event& /*event*/,
                         double /*finish*/) noexcept {
    return false;
  }
};

/// The arena's deterministic timing replay over the sliced id grid: the
/// step engine with the fault-free policy, as one sequential drain on the
/// calling thread.  Adds the modelled compute time to `report` and returns
/// the latest finish.
///
/// Barrier mode (feed == nullptr) ingests every row up front.  Streaming
/// ingests rows as the producer publishes them and drains only events below
/// the watermark cap (t_start, first key of row `published`): rows publish
/// in base-id order, so every event of an unpublished row sorts at or after
/// that key.  A streamed replay gives up early once `failed` is set.
double replay_arena(const recovery::PlanArena& plan,
                    const ArenaStreamFeed* feed, Cluster& cluster,
                    double t_start, const std::atomic<bool>& failed,
                    ExecutionReport& report) {
  const std::uint64_t n_base = plan.num_base_steps();
  const std::size_t num_nodes = cluster.topology().num_nodes();
  StepCore<> core(t_start, static_cast<std::size_t>(plan.num_sliced_steps()));
  StepCore<>::Segment& segment = core.open(plan, t_start);
  ReplayPolicy policy{plan, cluster, cluster.config().page_bytes,
                      cluster.config().virtual_gf_bps, report, t_start, true,
                      {t_start, 0}};
  std::size_t idle = 0;
  for (;;) {
    // Closed is read before the watermark: the producer publishes its last
    // rows before it closes, so a closed feed's watermark is final.
    bool finished = true;
    std::uint64_t progress = n_base;
    if (feed != nullptr) {
      finished = feed->closed();
      progress = feed->published();
      CAR_CHECK_STATE(!finished || progress >= n_base,
                      "Cluster::execute_arena_streaming: producer closed "
                      "before publishing every base step");
    }
    for (std::uint64_t row = segment.rows; row < progress; ++row) {
      check_row_in_topology(plan, row, num_nodes);
    }
    core.ingest(segment, progress);
    policy.finished = finished;
    policy.cap = {t_start, StepCore<>::key(progress * plan.num_slices(), 0)};
    const std::uint64_t before = segment.completed;
    core.drain(policy);
    if (finished || failed.load(std::memory_order_acquire)) break;
    if (segment.completed != before) {
      idle = 0;
    } else {
      relax_cpu(idle++);
    }
  }
  return policy.end;
}

}  // namespace

struct Cluster::Impl {
  /// A stored buffer.  Slots on different nodes (or under different keys)
  /// may hold the same buffer: an arena transfer hands the destination the
  /// source's buffer, and a publish hands the chunk key the step output's.
  /// The deleter parks the capacity back in `pool` when the last holder
  /// lets go.
  using SharedChunk = std::shared_ptr<rs::Chunk>;

  struct Slot {
    SharedChunk buf;
    /// Set once the buffer has been handed to another slot: it may be
    /// shared, so a ranged write copies it first (copy-on-write).  Never
    /// cleared while the slot keeps this buffer — a stale flag costs one
    /// copy, never a write into another slot's bytes.
    bool shared = false;
  };

  struct NodeStore {
    mutable util::Mutex mu;
    std::unordered_map<std::uint64_t, Slot> buffers CAR_GUARDED_BY(mu);
  };

  // Pooled staging + store capacity: wire copies and compute scratch of the
  // inject executor, and every store buffer execution creates, come from
  // here (see util/buffer_pool.h).  Declared before `stores`, so
  // it outlives the last buffer whose deleter recycles into it.
  util::BufferPool pool;

  std::vector<NodeStore> stores;
  LinkTable links;  // layout: see Cluster::links()
  std::vector<util::Mutex> cpu;  // serialises arena compute per node

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

  /// Wrap `data` as a store buffer whose capacity returns to the pool when
  /// its last holder lets go.
  SharedChunk adopt(rs::Chunk data) {
    return SharedChunk(new rs::Chunk(std::move(data)), [this](rs::Chunk* c) {
      pool.recycle(std::move(*c));
      delete c;
    });
  }

  const rs::Chunk* find(cluster::NodeId node, std::uint64_t key) const {
    const auto& store = stores[node];
    util::MutexLock lock(store.mu);
    const auto it = store.buffers.find(key);
    return it == store.buffers.end() ? nullptr : it->second.buf.get();
  }

  /// The buffer at (node, key) for another slot to hold, or null when
  /// absent.  Marks the slot shared, so a later ranged write into it copies
  /// first.
  SharedChunk share(cluster::NodeId node, std::uint64_t key) {
    auto& store = stores[node];
    util::MutexLock lock(store.mu);
    const auto it = store.buffers.find(key);
    if (it == store.buffers.end()) return nullptr;
    it->second.shared = true;
    return it->second.buf;
  }

  /// Install `buf` at (node, key), replacing any previous buffer; `shared`
  /// says whether another slot holds it too.  The replaced buffer is let go
  /// outside the store lock (its deleter may recycle it).
  void install(cluster::NodeId node, std::uint64_t key, SharedChunk buf,
               bool shared) {
    auto& store = stores[node];
    Slot replaced;
    {
      util::MutexLock lock(store.mu);
      Slot& slot = store.buffers[key];
      replaced = std::move(slot);
      slot = Slot{std::move(buf), shared};
    }
  }

  /// Make the buffer at (node, key) private at full_size — drawn from the
  /// pool when absent or too small, copied first when shared
  /// (copy-on-write) — and return [offset, offset + length) of it.  A
  /// private buffer established at full_size is written in place, so
  /// readers' pointers into it stay valid; a copy-on-write leaves readers
  /// of the shared buffer on its old bytes.
  std::span<std::uint8_t> private_range(cluster::NodeId node,
                                        std::uint64_t key,
                                        std::uint64_t full_size,
                                        std::uint64_t offset,
                                        std::uint64_t length) {
    // Overflow-safe form of offset + length <= full_size.
    CAR_CHECK(offset <= full_size && length <= full_size - offset,
              "Cluster::write_buffer_range: slice range [" +
                  std::to_string(offset) + ", +" + std::to_string(length) +
                  ") exceeds the " + std::to_string(full_size) +
                  "-byte buffer");
    auto& store = stores[node];
    SharedChunk released;
    util::MutexLock lock(store.mu);
    Slot& slot = store.buffers[key];
    if (slot.buf == nullptr || slot.shared) {
      SharedChunk fresh = adopt(pool.take(full_size));
      if (slot.buf != nullptr) {
        const std::size_t keep =
            std::min<std::size_t>(slot.buf->size(), full_size);
        if (keep > 0) std::memcpy(fresh->data(), slot.buf->data(), keep);
      }
      released = std::exchange(slot.buf, std::move(fresh));
      slot.shared = false;
    } else if (slot.buf->size() != full_size) {
      if (slot.buf->capacity() >= full_size) {
        slot.buf->resize(full_size);
      } else {
        released = std::exchange(slot.buf, adopt(pool.take(full_size)));
      }
    }
    return std::span<std::uint8_t>(*slot.buf).subspan(
        static_cast<std::size_t>(offset), static_cast<std::size_t>(length));
  }

  /// Remove every slot of `node` whose key satisfies `pred`.  The removed
  /// buffers are let go outside the store lock: one still held by another
  /// slot stays alive there, the rest go back to the pool.
  template <typename Pred>
  void erase_slots(cluster::NodeId node, Pred pred) {
    auto& store = stores[node];
    std::vector<Slot> removed;
    {
      util::MutexLock lock(store.mu);
      for (auto it = store.buffers.begin(); it != store.buffers.end();) {
        if (pred(it->first)) {
          removed.push_back(std::move(it->second));
          it = store.buffers.erase(it);
        } else {
          ++it;
        }
      }
    }
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
    : impl_(std::make_unique<Impl>()),
      topology_(std::move(topology)),
      config_(config) {
  // `!(x > 0)` also rejects NaN; an infinite rate would model links or
  // decoders that take no time at all.
  const auto check_rate = [](double rate, const char* field) {
    CAR_CHECK(rate > 0 && std::isfinite(rate),
              std::string("EmulConfig: ") + field +
                  " must be positive and finite, got " + std::to_string(rate));
  };
  check_rate(config_.node_bps, "node_bps");
  check_rate(config_.oversubscription, "oversubscription");
  if (config_.rack_link_bps) {
    check_rate(*config_.rack_link_bps, "rack_link_bps");
  }
  check_rate(config_.virtual_gf_bps, "virtual_gf_bps");
  CAR_CHECK(config_.page_bytes > 0, "EmulConfig: page_bytes must be > 0");
  const std::size_t n = topology_.num_nodes();
  const std::size_t r = topology_.num_racks();
  impl_->stores = std::vector<Impl::NodeStore>(n);
  impl_->cpu = std::vector<util::Mutex>(n);
  impl_->dropped.assign(n, false);
  for (std::size_t i = 0; i < 2 * n; ++i) impl_->links.add(config_.node_bps);
  for (int side = 0; side < 2; ++side) {
    for (std::size_t i = 0; i < r; ++i) {
      impl_->links.add(
          config_.rack_link_bps
              ? *config_.rack_link_bps
              : static_cast<double>(topology_.nodes_in_rack_count(i)) *
                    config_.node_bps / config_.oversubscription);
    }
  }
}

Cluster::~Cluster() = default;

void Cluster::store_chunk(cluster::NodeId node, cluster::StripeId stripe,
                          std::size_t chunk_index, rs::Chunk data) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::store_chunk: bad node id");
  }
  impl_->check_alive(node, "Cluster::store_chunk");
  impl_->install(node, chunk_key(stripe, chunk_index),
                 impl_->adopt(std::move(data)), false);
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

std::span<std::uint8_t> Cluster::write_buffer_range(
    cluster::NodeId node, const recovery::BufferRef& ref,
    std::uint64_t full_size, std::uint64_t offset, std::uint64_t length) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::write_buffer_range: bad node id");
  }
  impl_->check_alive(node, "Cluster::write_buffer_range");
  return impl_->private_range(node, key_of(ref), full_size, offset, length);
}

bool Cluster::share_buffer(cluster::NodeId from,
                           const recovery::BufferRef& from_ref,
                           cluster::NodeId to,
                           const recovery::BufferRef& to_ref) {
  if (from >= topology_.num_nodes() || to >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::share_buffer: bad node id");
  }
  impl_->check_alive(to, "Cluster::share_buffer");
  Impl::SharedChunk buf = impl_->share(from, key_of(from_ref));
  if (buf == nullptr) return false;
  impl_->install(to, key_of(to_ref), std::move(buf), true);
  return true;
}

util::BufferPool& Cluster::buffer_pool() noexcept { return impl_->pool; }

void Cluster::erase_node(cluster::NodeId node) {
  if (node >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::erase_node: bad node id");
  }
  impl_->erase_slots(node, [](std::uint64_t) { return true; });
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
  for (cluster::NodeId node = 0; node < impl_->stores.size(); ++node) {
    impl_->erase_slots(
        node, [](std::uint64_t key) { return (key & kStepBit) != 0; });
  }
}

LinkPath Cluster::path(cluster::NodeId src, cluster::NodeId dst) const {
  if (src >= topology_.num_nodes() || dst >= topology_.num_nodes()) {
    throw std::out_of_range("Cluster::path: bad node id");
  }
  if (src == dst) return LinkPath{};
  const auto src_rack = topology_.rack_of(src);
  const auto dst_rack = topology_.rack_of(dst);
  if (src_rack == dst_rack) {
    return LinkPath(impl_->links, {node_up_link(src), node_down_link(dst)});
  }
  return LinkPath(impl_->links, {node_up_link(src), rack_up_link(src_rack),
                                 rack_down_link(dst_rack), node_down_link(dst)});
}

LinkTable& Cluster::links() noexcept { return impl_->links; }

LinkId Cluster::node_up_link(cluster::NodeId node) const {
  return link_id(0, node, topology_.num_nodes(), "node_up_link");
}
LinkId Cluster::node_down_link(cluster::NodeId node) const {
  return link_id(topology_.num_nodes(), node, topology_.num_nodes(),
                 "node_down_link");
}
LinkId Cluster::rack_up_link(cluster::RackId rack) const {
  return link_id(2 * topology_.num_nodes(), rack, topology_.num_racks(),
                 "rack_up_link");
}
LinkId Cluster::rack_down_link(cluster::RackId rack) const {
  return link_id(2 * topology_.num_nodes() + topology_.num_racks(), rack,
                 topology_.num_racks(), "rack_down_link");
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
  // One slice per step: the arena walk on the chunk grid.
  return execute_arena(recovery::PlanArena::build(
      plan, std::max<std::uint64_t>(plan.chunk_size, 1)));
}

ExecutionReport Cluster::execute_arena(const recovery::PlanArena& plan,
                                       const ArenaExecOptions& options) {
  return execute_arena_impl(plan, options, nullptr);
}

ExecutionReport Cluster::execute_arena_streaming(
    const recovery::PlanArena& plan, const ArenaExecOptions& options,
    ArenaStreamFeed& feed) {
  return execute_arena_impl(plan, options, &feed);
}

ExecutionReport Cluster::execute_arena_impl(const recovery::PlanArena& plan,
                                            const ArenaExecOptions& options,
                                            ArenaStreamFeed* feed) {
  CAR_CHECK(options.shards >= 1,
            "Cluster::execute_arena: shards must be >= 1");
  CAR_CHECK(options.replay_shards == 1,
            "Cluster::execute_arena: replay_shards must be 1 (the timing "
            "replay is one sequential drain), got " +
                std::to_string(options.replay_shards));
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
  }
  // Streaming defers the closure CHECK until the producer finishes: the
  // flag itself is being written during appends.  The producer contract —
  // publish whole stripes of a stripe-closed plan only — is re-CHECKed
  // after the workers join.

  // Stage 1 — guard the recovery destination for the whole run.
  EmulClock& clock = clock_;
  struct GuardScope {
    Cluster* cluster;
    cluster::NodeId node;
    ~GuardScope() { cluster->remove_replacement_guard(node); }
  };
  add_replacement_guard(plan.replacement());
  GuardScope guard_scope{this, plan.replacement()};
  impl_->check_alive(plan.replacement(),
                     "Cluster::execute_arena: replacement");

  const DataPolicy data = options.sorted();

  // Liveness snapshot: shards check it lock-free per step; a node dropped
  // *during* execution bumps the drop epoch instead, which the shards poll
  // before every step to abort the run.
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
  const std::size_t num_nodes = topology_.num_nodes();
  const std::uint64_t epoch_at_start =
      impl_->drop_epoch.load(std::memory_order_acquire);
  const double t_start = clock.now();

  // Stage 2 — payload movement and byte accounting, sharded by stripe.
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
        check_row_in_topology(plan, base, num_nodes);
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
          if (!data.is_real(plan.stripe(base))) continue;
          // The destination shares the source's buffer: in-process nodes
          // have one address space, so no byte moves.  Slices of a
          // transfer carry disjoint ranges of these same bytes, so handing
          // over the whole chunk is exactly what slice-wise movement
          // composes to (the timing replay still reserves links slice by
          // slice).
          const std::uint64_t key = key_of(plan.payload(base));
          Impl::SharedChunk payload = impl_->share(src, key);
          CAR_CHECK_STATE(payload != nullptr,
                          "Cluster::execute_arena: transfer payload missing "
                          "on source node");
          CAR_CHECK_STATE(
              payload->size() == chunk,
              "Cluster::execute_arena: transfer size mismatch: plan "
              "declares " +
                  std::to_string(chunk) + " bytes but payload holds " +
                  std::to_string(payload->size()));
          if (src != dst) impl_->install(dst, key, std::move(payload), true);
        } else {
          const cluster::NodeId node = plan.node(base);
          check_alive_fast(node, "Cluster::execute_arena: compute node");
          if (!data.is_real(plan.stripe(base))) continue;
          const std::size_t n_in = plan.num_inputs(base);
          CAR_CHECK_STATE(n_in <= kMaxComputeInputs,
                          "Cluster::execute_arena: compute arity exceeds the "
                          "GF(2^8) bound");
          std::array<const rs::Chunk*, kMaxComputeInputs> inputs{};
          std::array<std::uint8_t, kMaxComputeInputs> coeffs{};
          for (std::size_t i = 0; i < n_in; ++i) {
            const recovery::ComputeInput in = plan.input(base, i);
            inputs[i] = impl_->find(node, key_of(in.buffer));
            CAR_CHECK_STATE(inputs[i] != nullptr,
                            "Cluster::execute_arena: compute input missing "
                            "on node");
            coeffs[i] = in.coeff;
          }
          // One store buffer per compute step, private to this shard until
          // installed: every slice writes its range in place (it cannot
          // alias an input), then the whole output enters the store.
          Impl::SharedChunk out =
              impl_->adopt(impl_->pool.take(static_cast<std::size_t>(chunk)));
          {
            util::MutexLock cpu_lock(impl_->cpu[node]);
            for (std::uint64_t s = 0; s < num_slices; ++s) {
              recovery::execute_compute_slice(
                  {coeffs.data(), n_in}, plan.step_bytes(base, s),
                  {inputs.data(), n_in}, chunk, plan.slice_offset(s),
                  std::span<std::uint8_t>(*out).subspan(
                      static_cast<std::size_t>(plan.slice_offset(s)),
                      static_cast<std::size_t>(plan.slice_length(s))),
                  "Cluster::execute_arena");
            }
          }
          impl_->install(node, step_key(base), std::move(out), false);
        }
      }
    } catch (...) {
      record_failure();
    }
  };

  // Barrier mode runs the payload pass to completion before the replay;
  // streaming lets its workers overlap the replay (payload movement and
  // the timing replay touch disjoint state — node buffers vs. links).
  std::vector<std::thread> payload_workers;
  if (!streaming && options.shards == 1) {
    run_shard(0);
  } else {
    payload_workers.reserve(options.shards);
    for (std::size_t w = 0; w < options.shards; ++w) {
      payload_workers.emplace_back(run_shard, w);
    }
  }
  auto join_payload = [&] {
    for (auto& worker : payload_workers) worker.join();
    payload_workers.clear();
  };
  if (!streaming) join_payload();

  // Stage 3 — the deterministic timing replay, on this thread.
  double end = t_start;
  if (!failed.load(std::memory_order_acquire)) {
    try {
      end = replay_arena(plan, feed, *this, t_start, failed, report);
    } catch (...) {
      record_failure();
    }
  }
  join_payload();
  if (error) std::rethrow_exception(error);
  if (streaming) {
    CAR_CHECK(plan.stripe_closed(),
              "Cluster::execute_arena_streaming: streaming execution "
              "requires a stripe-closed plan (the watermark publishes whole "
              "stripes; cross-stripe deps would couple them)");
  }

  // Stage 4 — merge the per-shard byte totals (in shard order) and the
  // replayed timeline into the report.
  for (const ShardTotals& acc : totals) {
    report.cross_rack_bytes += acc.cross;
    report.intra_rack_bytes += acc.intra;
    for (std::size_t r = 0; r < acc.per_rack.size(); ++r) {
      report.per_rack_cross_bytes[r] += acc.per_rack[r];
    }
  }
  clock.advance_to(end);
  report.wall_s = end - t_start;

  // Stage 5 — publish recovered chunks for every stripe that actually
  // carries bytes: each chunk key shares its step's (whole, assembled)
  // output buffer.  Metadata-only stripes have nothing to publish (their
  // recovery is accounted, not materialised).
  for (const auto& out : plan.outputs()) {
    CAR_CHECK_STATE(!data.is_real(out.stripe) ||
                        share_buffer(plan.replacement(),
                                     BufferRef::step(out.step_id),
                                     plan.replacement(),
                                     BufferRef::chunk(out.stripe,
                                                      out.chunk_index)),
                    "Cluster::execute_arena: recovered chunk missing");
  }
  return report;
}

}  // namespace car::emul
