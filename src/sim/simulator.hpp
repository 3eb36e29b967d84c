#pragma once
// Deterministic discrete-event simulator. All network, middleware and
// application activity is driven by events scheduled here; two runs with
// the same seed execute the same event sequence bit-for-bit.
//
// One engine, two entry points:
//   * Simulator(seed) is one shard run by one worker: the single-timeline
//     API (schedule_at/after, cancel, step, run_until, run_all, now). Ties
//     on the event time are broken by insertion order.
//   * Simulator(SimulatorConfig) runs S shards on W workers with classic
//     conservative (lookahead-based) synchronization, through the keyed
//     API (schedule, post, now(shard)) that a sharded net::World drives
//     (net::World keys its own events the same way on a one-shard
//     engine, next to single-timeline callers):
//       - Time advances in windows [t, t+L) where L is the lookahead — the
//         minimum latency of any cross-shard interaction. A single shard
//         has no such interaction and runs each run_until in one window.
//       - Within a window every shard executes its local events
//         independently, in parallel. Anything one shard does to another
//         is a posted event with `at >= window end` (checked by
//         NDSM_INVARIANT), buffered in a per-(src shard, dst shard)
//         mailbox.
//       - At the window barrier the coordinator drains every mailbox into
//         the destination shards, computes the next window start (jumping
//         idle gaps to the earliest pending event), and releases the
//         workers again.
//
// Event store, per shard: events live in a slab (free-list vector of slots
// that own the callbacks), and the priority heap holds 32-byte POD entries
// (time, key_hi, key_lo, slot, generation). Scheduling is a free-list pop
// plus a heap push; executing is a heap pop plus a generation compare — no
// hashing anywhere. cancel() bumps the slot generation, which turns the
// already queued heap entry into a tombstone that is skipped for free. An
// EventId packs (generation << 32 | slot << shard bits | shard), so a
// reused slot never honours a stale cancel; a one-shard engine has no
// shard bits.
//
// Determinism is the contract, not an aspiration. Same-instant events run
// in (key_hi, key_lo) order. Single-timeline calls take the key (0,
// insertion counter); keyed callers derive keys from simulation identities
// (node ids, per-node sequence numbers) — not from insertion order, which
// would differ between shardings — and keep them unique per shard and
// instant. Mailboxes are drained at the barrier, before the destination
// runs any event they could precede, so the event schedule of every shard
// is a pure function of the workload and the shard count — never of the
// worker count, thread scheduling, or which worker ran which shard. With
// keys that are also shard-invariant (the net::World discipline), the
// merged execution is identical for ANY shard count, including 1.
//
// Threads, mutexes and condition variables are confined to simulator.cpp;
// the ndsm_lint `raw-concurrency` rule bans them everywhere else.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/audit.hpp"
#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/periodic_timer.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ndsm::sim {

struct SimulatorConfig {
  std::size_t shards = 1;
  std::size_t workers = 1;
  // Minimum cross-shard latency (microseconds, >= 1): a cross-shard event
  // posted while executing at time t must carry `at >= t + lookahead`.
  Time lookahead = 1;
  std::uint64_t seed = 42;
};

class Simulator {
 public:
  using ShardIndex = std::uint32_t;
  static constexpr ShardIndex kNoShard = 0xffffffffu;

  // One shard, one worker. Publishes its virtual clock so the logger and
  // the obs tracer stamp records with sim time (last-constructed wins); a
  // sharded engine has no single clock to publish.
  explicit Simulator(std::uint64_t seed = 42);
  // `config.shards` timelines on `config.workers` threads, at most one per
  // shard (1 = serial, no threads are ever started).
  explicit Simulator(SimulatorConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- single timeline: shard 0, the whole timeline of a one-shard engine ---
  [[nodiscard]] Time now() const { return shards_[0].now; }
  [[nodiscard]] Rng& rng() { return rng_; }
  // The seed the engine was built with: layered code that keys its own
  // draws by it (net::World) derives them from the seed, not from rng().
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Schedule `fn` at absolute time `at` (>= now). Returns an id usable
  // with cancel().
  EventId schedule_at(Time at, std::function<void()> fn);
  EventId schedule_after(Time delay, std::function<void()> fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

  // Cancel a pending event of any shard. Cancelling an already-fired or
  // unknown event is a no-op and returns false. Inside a window only the
  // event's own shard may cancel it (NDSM_INVARIANT).
  bool cancel(EventId id);

  // Execute the next pending event; returns false if none remain.
  bool step();
  // Time of the next pending event, or kTimeNever if none remain. Drops
  // cancelled entries off the heap top, as step() does.
  [[nodiscard]] Time next_event_time();

  // Run every shard's events with time <= deadline, then advance every
  // clock to exactly `deadline`. Parallel windows when the engine has
  // several shards and workers; the event schedule is identical either way.
  void run_until(Time deadline);

  // Run until the event queue drains (use with care: periodic timers keep
  // the queue non-empty forever).
  void run_all(std::size_t max_events = SIZE_MAX);

  // --- keyed, sharded timeline ------------------------------------------------
  // Virtual clock of one shard: the time of its last executed event (or
  // the run_until deadline once the run completes).
  [[nodiscard]] Time now(ShardIndex shard) const { return shards_[shard].now; }

  // Schedule onto `shard`'s own timeline. Callable while the engine is
  // idle (build phase) or from an event executing on that same shard.
  // (key_hi, key_lo) orders same-time events — see file comment.
  EventId schedule(ShardIndex shard, Time at, std::uint64_t key_hi, std::uint64_t key_lo,
                   std::function<void()> fn);

  // Post onto another shard's timeline from an event executing on
  // `from`. The event is buffered in the (from, to) mailbox and becomes
  // visible to `to` at the next window barrier; `at` must respect the
  // lookahead contract (at >= end of the current window).
  void post(ShardIndex from, ShardIndex to, Time at, std::uint64_t key_hi,
            std::uint64_t key_lo, std::function<void()> fn);

  // Shard of this engine executing on the current thread (kNoShard outside
  // run_until callbacks) — lets layered code assert shard-affinity
  // contracts.
  [[nodiscard]] ShardIndex current_shard() const;

  struct Stats {
    std::uint64_t executed = 0;       // events run, all shards
    std::uint64_t windows = 0;        // barrier rounds
    std::uint64_t mailbox_posts = 0;  // cross-shard events carried
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t executed(ShardIndex shard) const {
    return shards_[shard].executed;
  }

  // --- whole engine (call between runs on a multi-shard engine) -------------
  // Exact count of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t executed_events() const { return stats().executed; }

  // Slab introspection (exported as obs gauges; also used by tests).
  [[nodiscard]] std::size_t slab_capacity() const;
  [[nodiscard]] std::size_t heap_depth() const;

  // Event-order digest: an FNV-1a hash folded over (time, key) of every
  // executed event, per shard, then over the shards in index order. A
  // single-timeline event's key is its insertion seq, so two runs produced
  // the same digest iff they executed the same events in the same order at
  // the same virtual times — the one-value determinism witness twin-run
  // tests compare instead of full counter dumps. Exported via obs as
  // sim.simulator.event_digest.
  [[nodiscard]] std::uint64_t digest() const;

  // Slab/heap consistency verifier (the NDSM_AUDIT hook; callable from
  // any build). Walks every shard's free list and heap and aborts with a
  // diagnostic if the slab bookkeeping ever disagrees with the heap:
  //   * every heap entry references a slot inside the slab,
  //   * the number of live heap entries equals the shard's pending count,
  //   * every live entry's slot still owns a callback,
  //   * free-list length + live count covers the slab exactly (no leaked
  //     and no doubly-freed slots, no free-list cycle).
  // NDSM_AUDIT builds run this automatically every kAuditInterval steps.
  void audit_verify() const;

  // Steps between automatic audit_verify() calls in NDSM_AUDIT builds.
  static constexpr std::uint64_t kAuditInterval = 1024;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // One slab slot per in-flight event; freed slots chain on a free list
  // and recycle their callback capacity. `gen` increments on every
  // release, so (slot, gen) pairs in the heap and in EventIds stay unique
  // across reuse (wraps after 2^32 reuses of one slot).
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  struct Entry {
    Time at;
    std::uint64_t key_hi;
    std::uint64_t key_lo;
    std::uint32_t slot;
    std::uint32_t gen;
    // Ordered as a min-heap on (at, key_hi, key_lo).
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      if (a.key_hi != b.key_hi) return a.key_hi > b.key_hi;
      return a.key_lo > b.key_lo;
    }
  };

  // Thin wrapper so audit_verify() can scan the underlying heap storage
  // and cancel() can compact it (std::priority_queue keeps its container
  // protected).
  struct EntryHeap : std::priority_queue<Entry, std::vector<Entry>, std::greater<>> {
    [[nodiscard]] const std::vector<Entry>& entries() const { return c; }
    // Drop the entries `dead` picks and restore the heap order in place.
    template <class Pred>
    void drop_if(Pred dead) {
      c.erase(std::remove_if(c.begin(), c.end(), dead), c.end());
      std::make_heap(c.begin(), c.end(), comp);
    }
  };

  // A cross-shard event waiting in a mailbox for the next barrier.
  struct Posted {
    Time at;
    std::uint64_t key_hi;
    std::uint64_t key_lo;
    std::function<void()> fn;
  };

  // One timeline. Mutated only by the worker executing it during a window
  // (and by the coordinator between windows); padded so two shards' hot
  // fields never share a cache line.
  struct alignas(64) Shard {
    std::vector<Slot> slots;
    EntryHeap heap;
    // One outbox per destination shard; written only by the worker
    // executing this shard during a window, drained by the coordinator at
    // the barrier (the barrier handshake orders the two).
    std::vector<std::vector<Posted>> outbox;
    std::uint32_t free_head = kNoSlot;
    std::size_t live = 0;
    Time now = 0;
    std::uint64_t seq = 0;  // single-timeline insertion counter (key_lo)
    std::uint64_t executed = 0;
    std::uint64_t digest = kFnvBasis;

    [[nodiscard]] bool holds(const Entry& e) const { return slots[e.slot].gen == e.gen; }
    // Pop cancelled entries off the heap top; true while a live event remains.
    bool pop_cancelled() {
      while (!heap.empty() && !holds(heap.top())) heap.pop();
      return !heap.empty();
    }
    // Detach the callback, bump the generation and recycle the slot.
    std::function<void()> release(std::uint32_t slot);
    // FNV-1a fold of one executed event into the shard digest.
    void mix(std::uint64_t v) { digest = fnv_fold(digest, v); }
    void verify() const;
  };

  struct Pool;  // worker threads and the barrier handshake (simulator.cpp)

  EventId push(ShardIndex shard, Time at, std::uint64_t key_hi, std::uint64_t key_lo,
               std::function<void()> fn);
  // Pop and run the top heap entry of `s`, which must be live.
  void execute(Shard& s);
  // Execute `shard`'s events with at <= last.
  void run_shard(ShardIndex shard, Time last);
  // Barrier-side work: move every outbox into its destination shard and
  // drop cancelled heap tops. Returns the earliest pending time.
  Time drain_mailboxes_and_next();
  void run_window(Time last);
  void claim_shards();
  void worker_loop();
  void register_metrics();
  template <class F>
  [[nodiscard]] std::uint64_t sum(F per_shard) const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += per_shard(s);
    return n;
  }

  std::uint64_t seed_;
  Rng rng_;
  Time lookahead_;
  std::vector<Shard> shards_;
  std::uint32_t shard_bits_ = 0;  // low EventId bits that name the shard
  Time window_last_ = 0;          // last instant of the current window
  std::uint64_t windows_ = 0;
  std::uint64_t mailbox_posts_ = 0;
  std::unique_ptr<Pool> pool_;  // null when one thread runs every shard
  obs::MetricGroup metrics_;
};

using PeriodicTimer = BasicPeriodicTimer<Simulator>;

}  // namespace ndsm::sim
