#include "emul/cluster.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "emul/calendar_queue.h"
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

/// Rejects a step naming a node outside the topology, before any per-node
/// store, liveness slot or link is indexed with it.  `src`/`dst` matter for
/// transfers, `node` for computes.
void check_step_in_topology(const char* who, std::uint64_t step,
                            StepKind kind, cluster::NodeId src,
                            cluster::NodeId dst, cluster::NodeId node,
                            std::size_t num_nodes) {
  auto check = [&](cluster::NodeId id, const char* role) {
    CAR_CHECK(id < num_nodes,
              std::string(who) + ": " + role + " of step " +
                  std::to_string(step) + " is node " + std::to_string(id) +
                  ", outside the " + std::to_string(num_nodes) +
                  "-node topology");
  };
  if (kind == StepKind::kTransfer) {
    check(src, "transfer source");
    check(dst, "transfer destination");
  } else {
    check(node, "compute node");
  }
}

/// check_step_in_topology for one arena row.
void check_row_in_topology(const recovery::PlanArena& plan,
                           std::uint64_t base, std::size_t num_nodes) {
  check_step_in_topology("Cluster::execute_arena", base, plan.kind(base),
                         plan.src(base), plan.dst(base), plan.node(base),
                         num_nodes);
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

/// Kahn's algorithm over a plan DAG: every step once, each after all of its
/// dependencies (breadth-first from the roots).  A cycle leaves steps
/// unreached, which is a util::CheckError.
std::vector<std::size_t> topological_order(
    std::vector<std::size_t> pending,
    const std::vector<std::vector<std::size_t>>& dependents) {
  std::vector<std::size_t> order;
  order.reserve(pending.size());
  for (std::size_t id = 0; id < pending.size(); ++id) {
    if (pending[id] == 0) order.push_back(id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t dep : dependents[order[head]]) {
      if (--pending[dep] == 0) order.push_back(dep);
    }
  }
  CAR_CHECK(order.size() == pending.size(),
            "Cluster::execute: dependency cycle in the plan DAG (" +
                std::to_string(pending.size() - order.size()) +
                " steps unreachable)");
  return order;
}

// ---- Arena timing replay -------------------------------------------------

/// What the arena replay reserves and charges: the cluster's per-node and
/// per-rack links (indexed by node / rack id) and its timing constants.
struct ReplayFabric {
  const cluster::Topology& topology;
  const std::vector<std::unique_ptr<SerialLink>>& node_up;
  const std::vector<std::unique_ptr<SerialLink>>& node_down;
  const std::vector<std::unique_ptr<SerialLink>>& rack_up;
  const std::vector<std::unique_ptr<SerialLink>>& rack_down;
  std::uint64_t page_bytes;
  double virtual_gf_bps;
};

/// The replayed timeline: latest finish and modelled compute time.
struct ReplayTimeline {
  double end = 0.0;
  double compute_s = 0.0;
  double replacement_compute_s = 0.0;
};

/// The arena's deterministic timing replay over the sliced id grid: the
/// identical (start time, id) min-queue walk execute() runs, driven from the
/// columns instead of materialised steps, as one sequential drain of one
/// calendar queue on the calling thread.
///
/// The pop stream is lexicographically monotone in (time, id): every
/// dependent pushed while processing event (t, id) has start >= finish >= t
/// and — forward deps — a strictly larger base step, hence a larger sliced
/// id at the same slice.  That monotonicity is what lets the calendar queue
/// run at O(1) amortised per event, and the drain-frontier watchdog below
/// fails fast if the queue ever surfaces an event behind it.
///
/// Barrier mode (feed == nullptr) ingests every row up front.  Streaming
/// ingests rows as the producer publishes them and drains only events below
/// the watermark cap (t_start, published * num_slices): rows publish in
/// base-id order, so every event of an unpublished row sorts at or after
/// that key.  A streamed replay gives up early once `failed` is set.
ReplayTimeline replay_arena(const recovery::PlanArena& plan,
                            const ArenaStreamFeed* feed,
                            const ReplayFabric& fabric, double t_start,
                            const std::atomic<bool>& failed) {
  const std::uint64_t n_base = plan.num_base_steps();
  const std::uint64_t num_slices = plan.num_slices();
  const std::uint64_t n_sliced = plan.num_sliced_steps();
  const std::size_t num_nodes = fabric.topology.num_nodes();
  std::vector<std::uint32_t> pending(n_sliced, 0);
  std::vector<double> start_at(n_sliced, t_start);
  CalendarQueue queue(static_cast<std::size_t>(n_sliced));
  ReplayTimeline timeline{t_start};

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
    hops[n_hops++] = fabric.node_up[src].get();
    const auto src_rack = fabric.topology.rack_of(src);
    const auto dst_rack = fabric.topology.rack_of(dst);
    if (src_rack != dst_rack) {
      hops[n_hops++] = fabric.rack_up[src_rack].get();
      hops[n_hops++] = fabric.rack_down[dst_rack].get();
    }
    hops[n_hops++] = fabric.node_down[dst].get();
    const std::uint64_t bytes = plan.step_bytes(base, slice);
    double finish = at;
    for (std::size_t h = 0; h < n_hops; ++h) {
      finish = std::max(finish,
                        hops[h]->reserve_pages(at, bytes, fabric.page_bytes));
    }
    return finish;
  };

  auto process_event = [&](const CalendarQueue::Entry& event) {
    const std::uint64_t base = event.key / num_slices;
    const std::uint64_t slice = event.key % num_slices;
    double finish = event.time;
    if (plan.kind(base) == StepKind::kTransfer) {
      if (plan.src(base) != plan.dst(base)) {
        finish = reserve_transfer(base, slice, event.time);
      }
    } else {
      const double dt = static_cast<double>(plan.step_bytes(base, slice)) /
                        fabric.virtual_gf_bps;
      finish = event.time + dt;
      timeline.compute_s += dt;
      if (plan.node(base) == plan.replacement()) {
        timeline.replacement_compute_s += dt;
      }
    }
    timeline.end = std::max(timeline.end, finish);
    for (const std::uint64_t dep_base : plan.dependents(base)) {
      const std::uint64_t did = plan.sliced_id(dep_base, slice);
      start_at[did] = std::max(start_at[did], finish);
      if (--pending[did] == 0) queue.push(start_at[did], did);
    }
  };

  std::uint64_t ingested = 0;
  CalendarQueue::Entry drained{t_start, 0};
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
    // Ingest published rows: seed their pending counters and their
    // zero-indegree events.
    for (; ingested < progress; ++ingested) {
      check_row_in_topology(plan, ingested, num_nodes);
      const auto degree =
          static_cast<std::uint32_t>(plan.deps(ingested).size());
      for (std::uint64_t s = 0; s < num_slices; ++s) {
        const std::uint64_t sid = plan.sliced_id(ingested, s);
        pending[sid] = degree;
        if (degree == 0) queue.push(t_start, sid);
      }
    }
    const CalendarQueue::Entry cap{t_start, progress * num_slices};
    bool drained_any = false;
    while (!queue.empty() && (finished || queue.top() < cap)) {
      const CalendarQueue::Entry event = queue.pop();
      CAR_CHECK_STATE(!(event < drained),
                      "Cluster::execute_arena: calendar replay popped an "
                      "event behind its drain frontier");
      drained = event;
      process_event(event);
      drained_any = true;
    }
    if (finished || failed.load(std::memory_order_acquire)) break;
    if (drained_any) {
      idle = 0;
    } else {
      relax_cpu(idle++);
    }
  }
  return timeline;
}

}  // namespace

struct Cluster::Impl {
  struct NodeStore {
    mutable util::Mutex mu;
    std::unordered_map<std::uint64_t, rs::Chunk> buffers CAR_GUARDED_BY(mu);
  };

  EmulClock clock;
  std::vector<NodeStore> stores;
  std::vector<std::unique_ptr<SerialLink>> node_up;
  std::vector<std::unique_ptr<SerialLink>> node_down;
  std::vector<std::unique_ptr<SerialLink>> rack_up;
  std::vector<std::unique_ptr<SerialLink>> rack_down;
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
  /// re-materialised, so concurrent readers' pointers stay valid
  /// (unordered_map references are stable); the arena payload shards rely
  /// on this when one gathers inputs while another writes.
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
    : impl_(std::make_unique<Impl>()),
      topology_(std::move(topology)),
      config_(config) {
  CAR_CHECK(config_.node_bps > 0, "EmulConfig: node_bps must be positive");
  CAR_CHECK(config_.oversubscription > 0,
            "EmulConfig: oversubscription must be positive");
  CAR_CHECK(config_.page_bytes > 0, "EmulConfig: page_bytes must be > 0");
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
  for (std::size_t id = 0; id < n_steps; ++id) {
    const PlanStep& step = plan.steps[id];
    check_step_in_topology("Cluster::execute", id, step.kind, step.src,
                           step.dst, step.node, topology_.num_nodes());
  }

  const auto indegrees =
      recovery::step_indegrees(std::span<const PlanStep>(plan.steps));
  const auto dependents =
      recovery::step_dependents(std::span<const PlanStep>(plan.steps));
  const std::vector<std::size_t> order =
      topological_order(indegrees, dependents);
  EmulClock& clock = impl_->clock;

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
    // Stage the slice through a pooled lease — the wire payload.  The
    // staged copy also makes a loopback self-write well-defined.
    util::BufferLease wire = impl_->pool.acquire(
        static_cast<std::size_t>(slice.length));
    std::memcpy(wire.data(), src_buf->data() + slice.offset, slice.length);
    impl_->write_range(step.dst, key_of(step.payload), plan.chunk_size,
                       slice.offset, {wire.data(), wire.size()});
    // Loopback: the buffer never leaves the node, so no traffic is
    // reported (and the timing pass reserves no link).
    if (step.src == step.dst) return;

    const std::uint64_t moved = slice.length;  // == step.bytes by the grid
    const auto src_rack = topology_.rack_of(step.src);
    if (src_rack != topology_.rack_of(step.dst)) {
      report.cross_rack_bytes += moved;
      report.per_rack_cross_bytes[src_rack] += moved;
    } else {
      report.intra_rack_bytes += moved;
    }
  };

  auto run_compute = [&](const PlanStep& step, const SliceInfo& slice) {
    impl_->check_alive(step.node, "Cluster::execute: compute node");
    std::vector<const rs::Chunk*> inputs;
    inputs.reserve(step.inputs.size());
    for (const auto& in : step.inputs) {
      const rs::Chunk* buf = impl_->find(step.node, key_of(in.buffer));
      CAR_CHECK_STATE(buf != nullptr,
                      "Cluster::execute: compute input missing on node");
      inputs.push_back(buf);
    }
    // The step contract and the fused combine live in the shared helper,
    // which inject/driver.cc executes identically.  The output is staged in
    // a lease (the kernels' combine output may not alias its inputs) and
    // then assembled into the base step's output buffer.
    util::BufferLease out = impl_->pool.acquire(
        static_cast<std::size_t>(slice.length));
    recovery::execute_compute_slice(step, inputs, plan.chunk_size,
                                    slice.offset, {out.data(), out.size()},
                                    "Cluster::execute");
    impl_->write_range(step.node, step_key(slice.base_step), plan.chunk_size,
                       slice.offset, {out.data(), out.size()});
  };

  // Pass 1 — payload: walk the DAG in topological order; real bytes move,
  // real GF kernels run, and bytes are accounted.  No link is reserved and
  // the clock does not move, so a plan that throws here leaves the
  // timeline untouched.  A node dropped mid-execution bumps the drop
  // epoch, polled before every step.
  const std::uint64_t epoch_at_start =
      impl_->drop_epoch.load(std::memory_order_acquire);
  const double t_start = clock.now();
  for (const std::size_t id : order) {
    CAR_CHECK_STATE(impl_->drop_epoch.load(std::memory_order_acquire) ==
                        epoch_at_start,
                    "Cluster::execute: node dropped mid-execution; aborting "
                    "plan");
    const PlanStep& step = plan.steps[id];
    if (step.kind == StepKind::kTransfer) {
      run_transfer(step, plan.info[id]);
    } else {
      run_compute(step, plan.info[id]);
    }
  }

  // Pass 2 — deterministic timing replay.  Steps are processed in (virtual
  // start time, id) order from a min-heap, so link reservations happen in a
  // reproducible sequence.  Transfers reserve their page-wise path;
  // computes are charged step.bytes / virtual_gf_bps.
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
  // exactly like execute()'s per-step poll.
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
          // composes to exactly this (and the timing replay still reserves
          // links slice by slice).
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
  ReplayTimeline timeline;
  if (!failed.load(std::memory_order_acquire)) {
    try {
      timeline = replay_arena(
          plan, feed,
          {topology_, impl_->node_up, impl_->node_down, impl_->rack_up,
           impl_->rack_down, config_.page_bytes, config_.virtual_gf_bps},
          t_start, failed);
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
  report.compute_s = timeline.compute_s;
  report.replacement_compute_s = timeline.replacement_compute_s;
  clock.advance_to(timeline.end);
  report.wall_s = timeline.end - t_start;

  // Stage 5 — publish recovered chunks for every stripe that actually
  // carries bytes; metadata-only stripes have nothing to publish (their
  // recovery is accounted, not materialised).
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
