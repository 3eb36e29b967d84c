#pragma once
// net::ShardedWorld — the spatially partitioned link layer that scales
// the simulated world across worker threads (ROADMAP item 1, DESIGN §13).
//
// The world is split into ShardMap stripes; each shard owns the nodes in
// its stripe — their liveness, handlers, per-node counters and digests —
// plus a per-medium cell index over exactly those nodes, and runs on its
// own timeline of a sharded sim::Simulator. A transmission near a cut
// line is forwarded to the (at most two) adjacent shards through the
// engine's ordered mailboxes; each shard then computes the receivers that
// fall in its own stripe from its own index.
//
// Geometry is frozen at seal(), so each shard's net::CellIndex over its
// members on a medium (net/cell_index.hpp, the index World uses too) is
// built once there. A transmission's 3x3 cell neighbourhood is then three
// contiguous member runs; the range test reads the inline positions, and
// only the in-range receivers are sorted by id, in a scratch buffer the
// shard reuses, so a fan-out allocates nothing per receiver. Delay and
// loss come from the link physics in net/link_spec.hpp, as in World.
//
// Faults: set_faults() takes the net::ChannelFaults a FaultPlan scripts
// on a World (FaultPlan::channel()), and evaluates it the same way: with
// equal seeds the two worlds take every loss, drop, jitter and duplicate
// decision alike. Node lifecycles are scripted with kill_at/revive_at.
//
// Determinism contract (stronger than the engine's): the per-node
// delivery order and the merged digest() are bit-identical for ANY shard
// count and ANY worker count, because nothing observable depends on
// either:
//   * Every random draw (loss and the net::ChannelFaults decisions) is
//     counter-based — hash_uniform over (seed, sender, per-sender
//     transmission seq, receiver), as World draws them — so a decision
//     is a pure function of the frame identity, not of how many draws
//     some sequential stream served before it (a per-shard stream would
//     re-order with the partition). A sender's burst chain is stepped on
//     its own shard when it transmits, and the transmission carries the
//     result to every shard that evaluates it.
//   * A fan-out visits its in-range receivers in id order, so the order
//     its deliveries run in does not depend on cell size, stripe cuts or
//     the index's layout.
//   * Same-instant events are keyed by simulation identities: a
//     transmission processes as (kind, src, tx_seq), so two broadcasts
//     landing on one receiver in the same microsecond deliver in (src,
//     tx_seq) order in every sharding.
//   * The digest folds per-node delivery digests in node-id order; a
//     shard's digest folds the nodes it owns the same way, so merging
//     shard digests recovers exactly the single-shard value.
//
// Scope (v1): wireless media only, positions fixed once sealed, one
// handler per node. Handlers run on their node's owner shard and may
// touch only that node's state: send/broadcast/schedule/kill/revive on
// the node they were invoked for (owner-shard affinity is audited via
// Simulator::current_shard). The full node::Runtime middleware stack
// still runs on the single-threaded World (DESIGN §13).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/vec2.hpp"
#include "net/cell_index.hpp"
#include "net/faults.hpp"
#include "net/frame.hpp"
#include "net/link_spec.hpp"
#include "net/shard_map.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ndsm::net {

// One received frame. `at` is the delivery time on the receiver's clock.
struct ShardFrame {
  NodeId src;
  NodeId dst;  // kBroadcast for broadcast receptions
  MediumId medium;
  Time at = 0;
  std::shared_ptr<const Bytes> payload_buf;

  [[nodiscard]] const Bytes& payload() const {
    static const Bytes empty;
    return payload_buf ? *payload_buf : empty;
  }
};

struct ShardedWorldConfig {
  std::size_t shards = 1;   // requested; ShardMap may reduce (range bound)
  std::size_t workers = 1;  // executor threads (1 = serial, no threads)
  std::uint64_t seed = 42;
};

class ShardedWorld {
 public:
  using Handler = std::function<void(const ShardFrame&)>;

  explicit ShardedWorld(ShardedWorldConfig config = {});

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  // --- build phase (single-threaded, before seal) ---------------------------
  MediumId add_medium(LinkSpec spec);  // wireless only
  NodeId add_node(Vec2 position);
  void attach(NodeId node, MediumId medium);
  void set_handler(NodeId node, Handler handler);
  // The channel faults every transmission is evaluated against, as World
  // evaluates a FaultPlan's (FaultPlan::channel()).
  void set_faults(ChannelFaults faults);
  // Script a fail-stop crash / revival on the node's own timeline.
  void kill_at(NodeId node, Time at);
  void revive_at(NodeId node, Time at);

  // Partition the world and build the engine. Called implicitly by the
  // first run_until; explicit calls let tests inspect the partition.
  void seal();

  // --- timeline -------------------------------------------------------------
  // Schedule `fn` on `node`'s owner shard. Before seal (or between runs)
  // callable from anywhere; during a run only from that node's own
  // context. `fn` is skipped if the node is dead at fire time.
  void schedule(NodeId node, Time at, std::function<void()> fn);
  void run_until(Time deadline);

  // --- link layer (owner-shard event context only) --------------------------
  Status broadcast(NodeId src, Bytes payload, MediumId medium = MediumId::invalid());
  Status send(NodeId src, NodeId dst, Bytes payload);
  void kill(NodeId node);
  void revive(NodeId node);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Vec2 position(NodeId node) const { return rec(node).pos; }
  [[nodiscard]] bool alive(NodeId node) const { return rec(node).alive; }
  [[nodiscard]] std::uint64_t delivered(NodeId node) const { return rec(node).delivered; }
  [[nodiscard]] bool sealed() const { return engine_ != nullptr; }
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::size_t shard_of(NodeId node) const { return rec(node).shard; }
  [[nodiscard]] sim::Simulator& engine();

  // Determinism witness: FNV-1a fold of per-node delivery digests in
  // node-id order (each node's digest folds (time, src, tx seq, bytes,
  // kind) over its own delivery/control sequence). Identical across
  // worker counts AND shard counts; see file comment.
  [[nodiscard]] std::uint64_t digest() const;
  // The same fold restricted to the nodes shard `s` owns: folding the
  // shard digests in shard-id order over id-sorted owner lists visits
  // every node exactly once, which is how the sharded digest merge
  // reproduces the single-shard value.
  [[nodiscard]] std::uint64_t shard_digest(std::size_t s) const;

  struct Totals {
    std::uint64_t frames_sent = 0;        // link-layer transmissions
    std::uint64_t frames_delivered = 0;   // handler-visible receptions
    std::uint64_t frames_lost = 0;        // per-receiver channel loss
    std::uint64_t fault_drops = 0;        // partitions + burst loss
    std::uint64_t fault_duplicates = 0;
    std::uint64_t fault_delays = 0;
    std::uint64_t cross_shard_transmissions = 0;  // forwarded to neighbors
  };
  [[nodiscard]] Totals totals() const;

 private:
  // Same-instant execution order (ascending): app timers, control
  // (kill/revive), transmission fan-outs, then per-receiver jittered or
  // duplicated deliveries — each class internally ordered by simulation
  // identity, never by insertion order.
  enum EventKind : std::uint64_t {
    kKindTimer = 1,
    kKindControl = 2,
    kKindTx = 3,
    kKindRx = 4,
  };
  struct NodeRec {
    Vec2 pos;
    bool alive = true;
    std::uint32_t shard = 0;
    std::vector<MediumId> media;
    Handler handler;
    std::uint64_t tx_seq = 0;       // per-sender transmission ids
    std::uint64_t timer_seq = 0;    // same-instant timer order
    std::uint64_t control_seq = 0;  // same-instant control order
    std::uint64_t digest = kFnvBasis;
    std::uint64_t delivered = 0;
  };

  // One shard's link-layer state. Mutated only by the owning shard's
  // worker during a run; padded so two shards' hot counters never share a
  // cache line.
  struct alignas(64) Shard {
    Totals t;
    std::vector<CellIndex> cells;   // per medium, frozen at seal
    std::vector<NodeId> receivers;  // process_tx scratch, reused
    BurstStates bursting;           // bad burst chains of the nodes it owns
    std::uint64_t fanouts = 0;      // counted in NDSM_AUDIT builds only
  };
  // NDSM_AUDIT builds cross-check every kFanoutAuditSample-th fan-out of
  // a shard against a brute-force range scan.
  static constexpr std::uint64_t kFanoutAuditSample = 64;

  struct PendingEvent {  // schedule()/kill_at() calls buffered pre-seal
    NodeId node;
    Time at;
    std::uint64_t kind;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  [[nodiscard]] NodeRec& rec(NodeId id);
  [[nodiscard]] const NodeRec& rec(NodeId id) const;
  [[nodiscard]] static std::uint64_t key_hi(std::uint64_t kind, NodeId id) {
    return (kind << 56) | id.value();
  }
  void schedule_keyed(NodeId node, Time at, std::uint64_t kind, std::uint64_t key_lo,
                      std::function<void()> fn);
  void assert_owner_context(const NodeRec& n, const char* what) const;
  // Number a transmission of `s` on `medium`, on its own shard, and step
  // its burst chain there.
  Transmission transmit(NodeRec& s, NodeId src, MediumId medium);
  // The channel's verdict on one (transmission, receiver) pair, counted
  // in `sh`; none if the frame is lost or dropped.
  std::optional<FaultDecision> fate(Shard& sh, const Transmission& tx, NodeId dst,
                                    double loss_p) const;
  // Process one transmission inside shard `shard`: gather the shard's
  // in-range receivers, take the counter-hashed per-receiver decisions,
  // deliver.
  void process_tx(std::uint32_t shard, const Transmission& tx, Time at, double loss_p,
                  const std::shared_ptr<const Bytes>& buf);
  // Schedule a late reception of `frame` at `at` on `dst`'s owner shard,
  // from an event of shard `from`. Copy 1 is a duplicate.
  void schedule_rx(std::uint32_t from, NodeId dst, std::uint64_t copy, ShardFrame frame, Time at,
                   std::uint64_t tx_seq);
  // The brute-force check behind the NDSM_AUDIT sampling: `receivers`
  // must be exactly the nodes of `shard` on `medium`, other than `src`,
  // within range of it.
  void audit_verify_receivers(std::uint32_t shard, NodeId src, MediumId medium,
                              const std::vector<NodeId>& receivers) const;
  void deliver(NodeRec& n, const ShardFrame& frame, std::uint64_t tx_uid);
  void mix_control(NodeRec& n, Time at, std::uint64_t tag);
  void register_metrics();

  ShardedWorldConfig config_;
  ChannelFaults faults_;
  // Fixed per world, so derived once in the constructor, never per
  // transmission.
  DrawSeeds seeds_;
  std::vector<NodeRec> nodes_;
  std::vector<LinkSpec> media_;
  std::vector<PendingEvent> pending_;
  std::unique_ptr<ShardMap> map_;
  std::unique_ptr<sim::Simulator> engine_;
  std::vector<Shard> shards_;
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::net
