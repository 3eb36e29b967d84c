#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace ndsm::sim {

namespace {
// Engine and shard the current thread is executing (null/kNoShard between
// windows). Set by run_shard, read through current_shard() by layered code
// (a sharded net::World) to enforce its owner-shard contracts, and by cancel().
struct Running {
  const Simulator* engine = nullptr;
  Simulator::ShardIndex shard = Simulator::kNoShard;
};
thread_local Running tls_running;
}  // namespace

// Workers sleep between windows; the coordinator publishes a new epoch
// under the mutex, every thread (the coordinator included) claims shards
// from the shared cursor, and the last one out signals completion. The
// mutex handshake gives the barrier its happens-before edges, so every
// outbox write is visible to the coordinator's drain and every drained
// heap is visible to the next window's executor.
struct Simulator::Pool {
  std::mutex mu;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  std::uint64_t epoch = 0;
  std::size_t next_shard = 0;  // claim cursor (advanced under mu)
  std::size_t running = 0;     // threads still executing this epoch
  bool shutdown = false;
  std::vector<std::thread> threads;  // last: they use everything above
};

Simulator::Simulator(std::uint64_t seed) : Simulator(SimulatorConfig{.seed = seed}) {
  bind_sim_clock(this, [](const void* s) { return static_cast<const Simulator*>(s)->now(); });
}

Simulator::Simulator(SimulatorConfig config)
    : seed_(config.seed), rng_(config.seed), lookahead_(config.lookahead), shards_(config.shards) {
  NDSM_INVARIANT(config.shards >= 1, "Simulator needs at least one shard");
  NDSM_INVARIANT(lookahead_ >= 1, "lookahead must be at least one time tick");
  while ((std::size_t{1} << shard_bits_) < shards_.size()) shard_bits_++;
  for (Shard& s : shards_) s.outbox.resize(shards_.size());
  // Any NDSM_INVARIANT failure from here on dumps the tracer ring to
  // out/flightrec-invariant.jsonl before aborting (sim links obs;
  // common, where the invariant lives, cannot).
  obs::install_invariant_flight_hook();
  register_metrics();
  const std::size_t workers = std::min(config.workers, shards_.size());
  if (workers > 1) {
    pool_ = std::make_unique<Pool>();
    for (std::size_t w = 1; w < workers; ++w) {
      pool_->threads.emplace_back([this] { worker_loop(); });
    }
  }
}

Simulator::~Simulator() {
  if (pool_) {
    {
      std::lock_guard<std::mutex> lock(pool_->mu);
      pool_->shutdown = true;
    }
    pool_->work_ready.notify_all();
    for (std::thread& t : pool_->threads) t.join();
  }
  unbind_sim_clock(this);
}

void Simulator::register_metrics() {
  metrics_.set_labels("sim.simulator");
  metrics_.counter_fn("sim.simulator.executed_events", [this] { return executed_events(); });
  metrics_.counter_fn("sim.simulator.event_digest", [this] { return digest(); });
  metrics_.gauge("sim.simulator.pending_events",
                 [this] { return static_cast<double>(pending()); });
  metrics_.gauge("sim.simulator.slab_slots",
                 [this] { return static_cast<double>(slab_capacity()); });
  metrics_.gauge("sim.simulator.heap_depth",
                 [this] { return static_cast<double>(heap_depth()); });
  // Barrier rounds and mailbox traffic only exist between shards.
  if (shards_.size() == 1) return;
  metrics_.counter("sim.simulator.windows", &windows_);
  metrics_.counter("sim.simulator.mailbox_posts", &mailbox_posts_);
}

Simulator::ShardIndex Simulator::current_shard() const {
  return tls_running.engine == this ? tls_running.shard : kNoShard;
}

EventId Simulator::push(ShardIndex shard, Time at, std::uint64_t key_hi, std::uint64_t key_lo,
                        std::function<void()> fn) {
  Shard& s = shards_[shard];
  std::uint32_t slot;
  if (s.free_head != kNoSlot) {
    slot = s.free_head;
    s.free_head = s.slots[slot].next_free;
    s.slots[slot].fn = std::move(fn);
  } else {
    NDSM_INVARIANT(s.slots.size() < (std::uint64_t{1} << (32 - shard_bits_)) - 1,
                   "event slab exhausted: the slot no longer fits an EventId");
    slot = static_cast<std::uint32_t>(s.slots.size());
    s.slots.push_back(Slot{std::move(fn), 0, kNoSlot});
  }
  const std::uint32_t gen = s.slots[slot].gen;
  s.heap.push(Entry{at, key_hi, key_lo, slot, gen});
  ++s.live;
  return EventId{(static_cast<std::uint64_t>(gen) << 32) |
                 (static_cast<std::uint64_t>(slot) << shard_bits_) | shard};
}

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  Shard& s = shards_[0];
  assert(at >= s.now && "cannot schedule in the past");
  return push(0, at, 0, s.seq++, std::move(fn));
}

EventId Simulator::schedule(ShardIndex shard, Time at, std::uint64_t key_hi,
                            std::uint64_t key_lo, std::function<void()> fn) {
  NDSM_INVARIANT(shard < shards_.size(), "schedule() on an unknown shard");
  NDSM_AUDIT_ASSERT(current_shard() == kNoShard || current_shard() == shard,
                    "schedule() on a foreign shard from inside a window — use post()");
  NDSM_INVARIANT(at >= shards_[shard].now, "cannot schedule in a shard's past");
  return push(shard, at, key_hi, key_lo, std::move(fn));
}

void Simulator::post(ShardIndex from, ShardIndex to, Time at, std::uint64_t key_hi,
                     std::uint64_t key_lo, std::function<void()> fn) {
  NDSM_INVARIANT(from < shards_.size() && to < shards_.size(), "post() on an unknown shard");
  NDSM_INVARIANT(current_shard() == from,
                 "post() may only be called from an event executing on `from`");
  // The conservative-sync safety argument: anything posted during the
  // window [t, t+L) lands at or after t+L, so the destination shard can
  // freely execute up to (but excluding) t+L without ever missing input.
  NDSM_INVARIANT(at > window_last_,
                 "cross-shard post violates the lookahead contract (at < window end)");
  shards_[from].outbox[to].push_back(Posted{at, key_hi, key_lo, std::move(fn)});
}

std::function<void()> Simulator::Shard::release(std::uint32_t slot) {
  Slot& x = slots[slot];
  std::function<void()> fn = std::move(x.fn);
  x.fn = nullptr;  // moved-from functions are valid but unspecified; be explicit
  x.gen++;         // invalidates the heap entry and any outstanding EventId
  x.next_free = free_head;
  free_head = slot;
  return fn;
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;  // its all-ones bits would name some shard
  const auto low = static_cast<std::uint32_t>(id.value());
  const ShardIndex shard = low & ((1u << shard_bits_) - 1);
  const std::uint32_t slot = low >> shard_bits_;
  const auto gen = static_cast<std::uint32_t>(id.value() >> 32);
  if (shard >= shards_.size()) return false;
  // Another worker may be running that shard: its slab is off limits.
  NDSM_INVARIANT(tls_running.engine != this || tls_running.shard == shard,
                 "cancel() of another shard's event from inside a window");
  Shard& s = shards_[shard];
  if (slot >= s.slots.size() || s.slots[slot].gen != gen) return false;
  s.release(slot);
  --s.live;
  return true;
}

void Simulator::execute(Shard& s) {
  const Entry e = s.heap.top();
  s.heap.pop();
  auto fn = s.release(e.slot);
  assert(fn && "live slab slot lost its handler");
  --s.live;
  assert(e.at >= s.now);
  s.now = e.at;
  ++s.executed;
  s.mix(static_cast<std::uint64_t>(e.at));
  if (e.key_hi != 0) s.mix(e.key_hi);
  s.mix(e.key_lo);
#if NDSM_AUDIT_ENABLED
  if (s.executed % kAuditInterval == 0) s.verify();
#endif
  fn();
}

bool Simulator::step() {
  if (!shards_[0].pop_cancelled()) return false;
  execute(shards_[0]);
  return true;
}

void Simulator::run_all(std::size_t max_events) {
  for (std::size_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_shard(ShardIndex shard, Time last) {
  Shard& s = shards_[shard];
  const Running outer = tls_running;
  tls_running = Running{this, shard};
  while (s.pop_cancelled() && s.heap.top().at <= last) execute(s);
  tls_running = outer;
}

Time Simulator::drain_mailboxes_and_next() {
  // Keys are unique per shard and instant, so the order in which posted
  // events enter their destination heap cannot change the order they run in.
  for (Shard& src : shards_) {
    for (ShardIndex dst = 0; dst < src.outbox.size(); ++dst) {
      std::vector<Posted>& box = src.outbox[dst];
      for (Posted& p : box) push(dst, p.at, p.key_hi, p.key_lo, std::move(p.fn));
      mailbox_posts_ += box.size();
      box.clear();
    }
  }
  Time next = kTimeNever;
  for (Shard& s : shards_) {
    if (s.pop_cancelled()) next = std::min(next, s.heap.top().at);
  }
  return next;
}

void Simulator::run_until(Time deadline) {
  NDSM_INVARIANT(deadline < kTimeNever, "run_until(kTimeNever) would never terminate");
  for (;;) {
    const Time next = drain_mailboxes_and_next();
    if (next > deadline) break;
    // Jump idle gaps: the window may start at the earliest pending event,
    // because nothing exists before it to execute or to post.
    const bool to_deadline = shards_.size() == 1 || next > deadline - lookahead_;
    windows_++;
    run_window(to_deadline ? deadline : next + lookahead_ - 1);
  }
  for (Shard& s : shards_) s.now = std::max(s.now, deadline);
}

void Simulator::run_window(Time last) {
  window_last_ = last;
  if (!pool_) {
    for (ShardIndex s = 0; s < shards_.size(); ++s) run_shard(s, last);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->next_shard = 0;
    pool_->running = pool_->threads.size() + 1;
    pool_->epoch++;
  }
  pool_->work_ready.notify_all();
  claim_shards();  // the coordinator works like any pool thread
  std::unique_lock<std::mutex> lock(pool_->mu);
  pool_->work_done.wait(lock, [this] { return pool_->running == 0; });
}

void Simulator::claim_shards() {
  for (;;) {
    ShardIndex claimed;
    {
      std::lock_guard<std::mutex> lock(pool_->mu);
      if (pool_->next_shard >= shards_.size()) break;
      claimed = static_cast<ShardIndex>(pool_->next_shard++);
    }
    run_shard(claimed, window_last_);
  }
  std::lock_guard<std::mutex> lock(pool_->mu);
  if (--pool_->running == 0) pool_->work_done.notify_all();
}

void Simulator::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_->mu);
      pool_->work_ready.wait(lock,
                             [&] { return pool_->shutdown || pool_->epoch != seen_epoch; });
      if (pool_->shutdown) return;
      seen_epoch = pool_->epoch;
    }
    claim_shards();
  }
}

Simulator::Stats Simulator::stats() const {
  return Stats{sum([](const Shard& s) { return s.executed; }), windows_, mailbox_posts_};
}

std::size_t Simulator::pending() const { return sum([](const Shard& s) { return s.live; }); }

std::size_t Simulator::slab_capacity() const {
  return sum([](const Shard& s) { return s.slots.size(); });
}

std::size_t Simulator::heap_depth() const {
  return sum([](const Shard& s) { return s.heap.size(); });
}

std::uint64_t Simulator::digest() const {
  std::uint64_t d = shards_[0].digest;
  for (std::size_t s = 1; s < shards_.size(); ++s) d = fnv_fold(d, shards_[s].digest);
  return d;
}

void Simulator::audit_verify() const {
  for (const Shard& s : shards_) s.verify();
}

void Simulator::Shard::verify() const {
  // Heap side: count entries whose generation still matches their slot.
  std::size_t heap_live = 0;
  for (const Entry& e : heap.entries()) {
    NDSM_INVARIANT(e.slot < slots.size(), "heap entry references a slot outside the slab");
    if (!holds(e)) continue;
    heap_live++;
    NDSM_INVARIANT(static_cast<bool>(slots[e.slot].fn),
                   "live slab slot lost its handler (scheduled event with no callback)");
  }
  NDSM_INVARIANT(heap_live == live,
                 "live heap entry count disagrees with the pending-event counter");
  // Slab side: the free list plus the live events must cover the slab
  // exactly; a longer walk than the slab has slots means a cycle.
  std::size_t free_len = 0;
  for (std::uint32_t i = free_head; i != kNoSlot; i = slots[i].next_free) {
    NDSM_INVARIANT(i < slots.size(), "free list references a slot outside the slab");
    free_len++;
    NDSM_INVARIANT(free_len <= slots.size(), "free list is cyclic");
  }
  NDSM_INVARIANT(free_len + live == slots.size(),
                 "slab slots leaked: free list + live events do not cover the slab");
}

}  // namespace ndsm::sim
