#pragma once
// net::World — the simulated link layer. It hosts nodes and media and
// provides single-hop unicast and broadcast between nodes that share a
// medium and are within range. Everything above (routing, transport,
// discovery, ...) is built on this interface, which is all the "network
// independence" layer (§3.2) assumes of an underlying network.
//
// One World, on one shard or many (DESIGN §13):
//   * World(sim::Simulator&) runs on the caller's one-shard engine, under
//     the whole middleware stack (WorldStack), with mobility, batteries,
//     wired media and an attached FaultInjector (net::FaultPlan).
//   * World(WorldConfig) builds its own engine at seal(): the nodes are
//     partitioned into ShardMap stripes along x, and each stripe is one
//     timeline of a sharded sim::Simulator run by up to `workers`
//     threads. Its scope is what a partition can keep invariant today:
//     wireless media, positions and ranges fixed at seal(), mains power,
//     no death handler, channel faults through set_faults() instead of an
//     injector, and no layered stack. Each of those aborts through
//     NDSM_INVARIANT instead of running. Node handlers run on their
//     node's shard and may touch only that node (owner-shard affinity is
//     checked through Simulator::current_shard).
//
// Both run the same code. Everything the World schedules takes a key
// that names simulation identities, never insertion order: a node's
// timers and scripted kill/revive (kind, node, the node's sequence), a
// transmission (kTx, sender, the sender's transmission counter) and a
// late reception (kRx, receiver, a hash of the frame's identity). A
// transmission is one keyed event on each shard it reaches (the
// sender's, plus an adjacent stripe through the engine's mailbox when the
// range crosses the cut). That event gathers the shard's in-range
// receivers at arrival time from the shard's net::CellIndex, sorts them
// by id and delivers to them inline; a jittered or duplicated receiver
// gets its own reception event. Every loss and fault draw is keyed by
// the frame's identity (net/faults.hpp). So the per-node delivery order
// and digest() are bit-identical at any shard and worker count. On one
// shard, the World's events run after the single-timeline events of the
// same instant (those take key 0).
//
// A one-shard World rebuilds a wireless medium's cell index from scratch
// on the first query after a member attaches or moves or the range
// changes; a sharded World builds each shard's index once, at seal().
// Broadcast payloads are one immutable shared buffer per transmission;
// the receivers of a fan-out share it instead of copying the Bytes.
// Delay and loss come from the link physics in net/link_spec.hpp.

#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/vec2.hpp"
#include "net/cell_index.hpp"
#include "net/energy.hpp"
#include "net/faults.hpp"
#include "net/frame.hpp"
#include "net/link_spec.hpp"
#include "net/shard_map.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ndsm::net {

struct NodeStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;  // handler-visible receptions
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

struct WorldStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;    // per receiver: the medium's loss and fault drops
  std::uint64_t bytes_on_wire = 0;  // payload + header, per transmission
  // Spatial-index effectiveness (how much work the cell index saves).
  std::uint64_t grid_cells_scanned = 0;     // cells visited by index queries (9 each)
  std::uint64_t grid_candidates = 0;        // other members in those cells
  std::uint64_t payload_copies_avoided = 0; // receivers sharing a broadcast buffer
  // Injected-fault outcomes.
  std::uint64_t fault_drops = 0;       // frames a partition or burst swallowed
  std::uint64_t fault_duplicates = 0;  // extra deliveries added
  std::uint64_t fault_delays = 0;      // deliveries jittered
  std::uint64_t cross_shard_transmissions = 0;  // events posted to another shard
};

// A sharded World's partition and engine, built at seal().
struct WorldConfig {
  std::size_t shards = 1;   // requested; ShardMap may reduce (range bound)
  std::size_t workers = 1;  // executor threads (1 = serial, no threads)
  std::uint64_t seed = 42;
};

class World {
 public:
  using LinkHandler = std::function<void(const LinkFrame&)>;
  using DeathHandler = std::function<void(NodeId)>;

  // One shard on the caller's engine, which must have a single shard.
  explicit World(sim::Simulator& sim);
  // Sharded: seal() partitions the nodes and builds the engine.
  explicit World(WorldConfig config);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // The engine: the caller's, or the one seal() built (aborts before).
  [[nodiscard]] sim::Simulator& sim();
  // Built from a WorldConfig: the sharded scope of the file comment,
  // whatever shard count the partition ends up with.
  [[nodiscard]] bool sharded() const { return config_.has_value(); }

  // --- topology -----------------------------------------------------------
  // At most kMaxMedia (64) media per World.
  MediumId add_medium(LinkSpec spec);
  NodeId add_node(Vec2 position, Battery battery = Battery::mains());
  void attach(NodeId node, MediumId medium);

  [[nodiscard]] const LinkSpec& medium_spec(MediumId medium) const;
  // Adjust a wireless medium's communication range (e.g. to model higher
  // transmit power). Affects future reachability checks and sends; the
  // next query rebuilds the medium's cell index with the new cell size.
  void set_medium_range(MediumId medium, double range_m);
  [[nodiscard]] std::vector<MediumId> media_of(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

  // --- positions & mobility (one shard; a sharded World until seal) --------
  [[nodiscard]] Vec2 position(NodeId node) const;
  void set_position(NodeId node, Vec2 position);
  // Move the node toward `destination` at `speed_m_per_s`, updating its
  // position every `tick`. Motion stops on arrival or kill().
  void move_linear(NodeId node, Vec2 destination, double speed_m_per_s,
                   Time tick = duration::millis(100));

  // --- liveness & energy ----------------------------------------------------
  [[nodiscard]] bool alive(NodeId node) const;
  // On a sharded World only from the node's own events.
  void kill(NodeId node);
  void revive(NodeId node);
  [[nodiscard]] const Battery& battery(NodeId node) const;
  // Replace a node's power source (e.g. promote a sink to mains power).
  void set_battery(NodeId node, Battery battery);
  // Direct draw for non-communication costs (sensing, CPU). Kills the node
  // if the battery empties.
  void drain(NodeId node, double joules);
  void set_death_handler(DeathHandler handler);
  // Current handler, so components can chain rather than replace it.
  [[nodiscard]] const DeathHandler& death_handler() const { return on_death_; }

  // --- node timelines -------------------------------------------------------
  // Schedule `fn` at `at` on `node`'s shard; it is skipped if the node is
  // dead then. On a sharded World callable from anywhere before seal()
  // or between runs, and during a run only from the node's own events.
  void schedule(NodeId node, Time at, std::function<void()> fn);
  // Script a fail-stop crash / revival on the node's own timeline.
  void kill_at(NodeId node, Time at);
  void revive_at(NodeId node, Time at);

  // A sharded World: partition the nodes into stripes and build the
  // engine, its lookahead taken from the media. run_until() calls it
  // before the first run; explicit calls let tests inspect the partition.
  void seal();
  void run_until(Time deadline);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(NodeId node) const { return node_ref(node).shard; }

  // --- link layer -----------------------------------------------------------
  // One handler per (node, protocol). On a sharded World only before seal.
  void set_handler(NodeId node, Proto proto, LinkHandler handler);
  void clear_handler(NodeId node, Proto proto);

  // Unicast to a single-hop neighbour. Fails with kUnreachable if no shared
  // medium has the destination in range, kResourceExhausted if the sender
  // is dead. Loss on the channel is silent (transport recovers).
  Status link_send(NodeId src, NodeId dst, Proto proto, Bytes payload);

  // Broadcast on one medium (or on every attached medium, in id order, if
  // `medium` is invalid()). Wireless broadcasts reach all alive nodes in
  // range at arrival time; wired broadcasts reach all nodes on the segment.
  Status link_broadcast(NodeId src, Proto proto, Bytes payload,
                        MediumId medium = MediumId::invalid());

  // Single-hop neighbours over any shared medium (alive nodes only; one
  // shard).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;
  [[nodiscard]] bool in_link_range(NodeId a, NodeId b) const;

  // Energy a unicast of `payload_bytes` from a to b would cost the sender
  // (used by energy-aware routing metrics, §3.5).
  [[nodiscard]] double link_tx_cost(NodeId a, NodeId b, std::size_t payload_bytes) const;

  [[nodiscard]] const EnergyModel& energy_model() const { return energy_; }
  void set_energy_model(EnergyModel model) { energy_ = model; }

  [[nodiscard]] const NodeStats& stats(NodeId node) const;
  // Summed over the shards.
  [[nodiscard]] WorldStats stats() const;
  void reset_stats();

  // Determinism witness: FNV-1a fold of per-node delivery digests in
  // node-id order (each node's digest folds (time, src, tx seq, bytes)
  // of its deliveries and its kill/revive transitions), each followed by
  // its frames_received (which reset_stats() zeroes). Identical across
  // worker counts AND shard counts.
  [[nodiscard]] std::uint64_t digest() const;
  // The same fold over the nodes shard `s` owns.
  [[nodiscard]] std::uint64_t shard_digest(std::size_t s) const;

  // --- faults -----------------------------------------------------------------
  // The channel faults every transmission is evaluated against, as an
  // attached FaultPlan's (FaultPlan::channel()). On a sharded World only
  // before seal.
  void set_faults(ChannelFaults faults);
  // Attach (or detach, with nullptr) a fault injector (one shard). At most
  // one at a time; it replaces set_faults() while attached and must
  // outlive its attachment (FaultPlan detaches itself in its destructor).
  void set_fault_injector(FaultInjector* injector);
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  // Spatial-index consistency verifier (callable from any build): each
  // shard's cell index of the medium, brought up to date as a query
  // would, holds exactly the shard's members of the medium at their
  // current positions, each in the cell its position maps to, frozen for
  // the current range. Aborts with a diagnostic on violation. NDSM_AUDIT
  // builds also cross-check every kGridAuditSample-th index query of a
  // shard against a brute-force range scan.
  void audit_verify_grid(MediumId medium) const;

  static constexpr std::uint64_t kGridAuditSample = 64;

 private:
  // Same-instant order of the World's own events (ascending): node
  // timers, kill/revive, transmission fan-outs, then late receptions,
  // each ordered within by simulation identity.
  enum EventKind : std::uint64_t {
    kKindTimer = 1,
    kKindControl = 2,
    kKindTx = 3,
    kKindRx = 4,
  };
  // Proto values run from 1 to kReplfsData: one handler table each.
  static constexpr std::size_t kProtoSlots = static_cast<std::size_t>(Proto::kReplfsData) + 1;

  struct Node {
    // What a delivery touches comes first, in one run for the prefetch.
    bool alive = true;
    std::uint32_t shard = 0;
    std::uint64_t digest = kFnvBasis;
    NodeStats stats;
    Vec2 position;
    std::uint64_t media = 0;   // bit m: attached to MediumId{m}
    std::uint64_t tx_seq = 0;  // numbers its transmissions (net/faults.hpp)
    std::uint64_t seq = 0;     // numbers its timers and kill/revive events
  };

  struct Medium {
    LinkSpec spec;
    std::vector<NodeId> members;  // in id order
    // Wireless, one shard: the index is stale from the moment a member
    // attaches or moves or the range changes until the next query
    // rebuilds it (mutable: const queries rebuild it too).
    mutable bool index_stale = true;
  };

  // One timeline's link-layer state, mutated only by the worker running
  // that shard; padded so two shards' counters never share a cache line.
  struct alignas(64) Shard {
    WorldStats stats;
    std::vector<CellIndex> cells;   // per medium: the members in this stripe
    std::vector<NodeId> receivers;  // fan-out scratch, reused
    BurstStates bursting;           // set_faults() bursts of the senders it owns
    std::uint64_t queries = 0;      // index queries, for the NDSM_AUDIT sample
  };

  struct PendingEvent {  // keyed events of a sharded World before seal()
    NodeId node;
    Time at;
    std::uint64_t kind;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  [[nodiscard]] Node& node_ref(NodeId id);
  [[nodiscard]] const Node& node_ref(NodeId id) const;
  [[nodiscard]] Medium& medium(MediumId id);
  [[nodiscard]] const Medium& medium(MediumId id) const;
  [[nodiscard]] bool sealed() const { return map_.has_value(); }
  // Abort on a sealed sharded World: `what` changes what the partition froze.
  void assert_unsealed(const char* what) const;
  // On a sharded World, abort unless running `n`'s own shard.
  void assert_owner(const Node& n, const char* what) const;

  // A node's media are bits of a mask, visited in id order as
  // `for (auto rest = mask; rest != 0; rest &= rest - 1)` over lowest(rest).
  static constexpr std::size_t kMaxMedia = 64;
  [[nodiscard]] static MediumId lowest(std::uint64_t mask) {
    return MediumId{static_cast<std::size_t>(std::countr_zero(mask))};
  }
  [[nodiscard]] static std::uint64_t key_hi(std::uint64_t kind, NodeId id) {
    return (kind << 56) | id.value();
  }
  EventId schedule_keyed(NodeId node, Time at, std::uint64_t kind, std::function<void()> fn);

  // Best shared medium for a->b (wired preferred, then strongest wireless).
  [[nodiscard]] std::optional<MediumId> shared_medium(NodeId a, NodeId b) const;
  [[nodiscard]] static bool reachable_on(const Medium& m, const Node& a, const Node& b);

  // Rebuild every shard's cell index of the wireless medium `id`.
  void build_index(MediumId id) const;
  // Append the members of `medium` in `shard` other than `src` that a
  // frame from `src` reaches, dead or alive, in id order: on a wireless
  // medium those in range (counting the index query in the shard's
  // stats), on a wired segment every member.
  void reached(std::uint32_t shard, MediumId medium, NodeId src, std::vector<NodeId>& out) const;

  // Count a transmission of `sender` on `medium`, number it and step the
  // sender's burst chain.
  [[nodiscard]] Transmission transmit(Node& sender, NodeId src, MediumId medium,
                                      std::size_t payload_bytes, std::size_t wire_bytes);
  // Whether no loss or fault can touch any receiver of `tx`.
  [[nodiscard]] bool spared(const Transmission& tx, double loss_p) const {
    return loss_p == 0 && injector_ == nullptr && faults_.spares(tx);
  }
  // The channel's verdict on one (transmission, receiver) pair, counted in
  // `sh`; none if the frame is lost or dropped.
  [[nodiscard]] std::optional<FaultDecision> fate(Shard& sh, const Transmission& tx, NodeId dst,
                                                  double loss_p);
  // The transmission event on `shard`: deliver `tx` to the shard's
  // receivers.
  void fan_out(std::uint32_t shard, const Transmission& tx, Proto proto, double loss_p,
               std::size_t wire_bytes, const std::shared_ptr<const Bytes>& buf);
  // Schedule a reception of `frame` by `dst` at `at` on dst's shard, from
  // an event of shard `from`. Copy 1 is a duplicate.
  void schedule_rx(std::uint32_t from, NodeId dst, std::uint64_t copy, LinkFrame frame, Time at,
                   std::uint64_t tx_seq, std::size_t wire_bytes);
  // One reception on `shard` at `at`: liveness, rx energy, counters and
  // digest, then the handler.
  void receive(Shard& sh, NodeId dst, const LinkFrame& frame, Time at, std::uint64_t tx_seq,
               std::size_t wire_bytes);
  // One protocol's handlers by node id, in fixed chunks: growing the table
  // never moves a handler, so a running handler may register others.
  struct HandlerTable {
    static constexpr std::size_t kChunk = 256;
    std::vector<std::unique_ptr<LinkHandler[]>> chunks;

    [[nodiscard]] LinkHandler* find(NodeId id) const {
      const std::size_t c = id.value() / kChunk;
      return c < chunks.size() ? &chunks[c][id.value() % kChunk] : nullptr;
    }
    LinkHandler& slot(NodeId id) {
      while (chunks.size() <= id.value() / kChunk) {
        chunks.push_back(std::make_unique<LinkHandler[]>(kChunk));
      }
      return *find(id);
    }
  };

  // The slot of `id`'s handler for `proto`, or null if it has none.
  [[nodiscard]] const LinkHandler* handler_of(NodeId id, Proto proto) const {
    const auto p = static_cast<std::size_t>(proto);
    return p < kProtoSlots ? handlers_[p].find(id) : nullptr;
  }
  void dispatch(NodeId dst, const LinkFrame& frame);
  // Draw `joules` from a finite battery; false if that kills the node.
  bool draw(NodeId id, double joules);
  void mix_control(Node& n, std::uint64_t tag);
  void stop_motion(NodeId id);
  void step_toward(NodeId id, Vec2 destination, double step_m, Time tick);
  [[nodiscard]] std::uint64_t fold_digests(std::optional<std::size_t> shard) const;
  void register_metrics();

  std::optional<WorldConfig> config_;  // set: sharded
  std::unique_ptr<sim::Simulator> engine_;  // a sharded World's, from seal()
  sim::Simulator* sim_;                     // the engine in use
  std::optional<ShardMap> map_;             // a sharded World's, from seal()
  DrawSeeds seeds_;
  EnergyModel energy_;
  std::vector<Node> nodes_;
  std::vector<Medium> media_;
  // mutable: const queries (neighbors) rebuild indexes and count them.
  mutable std::vector<Shard> shards_;
  std::vector<PendingEvent> pending_;
  std::array<HandlerTable, kProtoSlots> handlers_;
  // Finite batteries by node id; empty while every node is mains-powered,
  // and a node past its end is mains-powered.
  std::vector<Battery> batteries_;
  std::map<NodeId, EventId> motion_;  // the pending step of each moving node
  ChannelFaults faults_;
  FaultInjector* injector_ = nullptr;
  DeathHandler on_death_;
  // Declared last: the registry views read the state above.
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::net
