#pragma once
// The World hosts nodes and media and provides the link layer: single-hop
// unicast and broadcast between nodes that share a medium and are within
// range. Everything above (routing, transport, discovery, ...) is built on
// this interface, which is all the "network independence" layer (§3.2)
// assumes of an underlying network.
//
// Hot-path design: every wireless medium keeps a net::CellIndex (range-
// sized cells; net/cell_index.hpp, the index ShardedWorld uses too), so
// broadcast and neighbor queries scan only the 3x3 cells around the
// sender instead of every member. The index is rebuilt from scratch by
// the first query after a member attaches or moves or the range changes.
// Broadcast payloads are carried as one immutable shared buffer per
// transmission; the N receivers of a fan-out share it instead of each
// copying the Bytes. Delay and loss come from the link physics in
// net/link_spec.hpp, shared with ShardedWorld.
//
// Every loss and fault draw is keyed by the frame's identity (sender, the
// sender's transmission counter, receiver) and the simulator's seed, not
// taken from a stream (net/faults.hpp), so one extra frame redraws no
// other decision. An attached FaultPlan's channel decisions are the ones
// ShardedWorld takes for the same script.

#include <cmath>
#include <functional>
#include <map>
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
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ndsm::net {

struct NodeStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_dropped = 0;  // lost on the channel after this node sent them
};

struct WorldStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t bytes_on_wire = 0;  // payload + header, per delivery attempt
  // Spatial-index effectiveness (how much work the cell index saves).
  std::uint64_t grid_cells_scanned = 0;     // cells visited by index queries (9 each)
  std::uint64_t grid_candidates = 0;        // other members in those cells
  std::uint64_t payload_copies_avoided = 0; // receivers sharing a broadcast buffer
  // Injected-fault outcomes (bumped when a FaultInjector is attached).
  std::uint64_t fault_drops = 0;       // frames the injector swallowed
  std::uint64_t fault_duplicates = 0;  // extra deliveries the injector added
  std::uint64_t fault_delays = 0;      // deliveries the injector jittered
};

class World {
 public:
  using LinkHandler = std::function<void(const LinkFrame&)>;
  using DeathHandler = std::function<void(NodeId)>;

  explicit World(sim::Simulator& sim) : sim_(sim), seeds_(draw_seeds(sim.seed())) {
    register_metrics();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  // --- topology -----------------------------------------------------------
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

  // --- positions & mobility -------------------------------------------------
  [[nodiscard]] Vec2 position(NodeId node) const;
  void set_position(NodeId node, Vec2 position);
  // Move the node toward `destination` at `speed_m_per_s`, updating its
  // position every `tick`. Motion stops on arrival or kill().
  void move_linear(NodeId node, Vec2 destination, double speed_m_per_s,
                   Time tick = duration::millis(100));

  // --- liveness & energy ----------------------------------------------------
  [[nodiscard]] bool alive(NodeId node) const;
  void kill(NodeId node);
  void revive(NodeId node);
  [[nodiscard]] const Battery& battery(NodeId node) const;
  // Replace a node's power source (e.g. promote a sink to mains power).
  void set_battery(NodeId node, Battery battery);
  // Direct draw for non-communication costs (sensing, CPU). Kills the node
  // if the battery empties.
  void drain(NodeId node, double joules);
  void set_death_handler(DeathHandler handler) { on_death_ = std::move(handler); }
  // Current handler, so components can chain rather than replace it.
  [[nodiscard]] const DeathHandler& death_handler() const { return on_death_; }

  // --- link layer -----------------------------------------------------------
  void set_handler(NodeId node, Proto proto, LinkHandler handler);
  void clear_handler(NodeId node, Proto proto);

  // Unicast to a single-hop neighbour. Fails with kUnreachable if no shared
  // medium has the destination in range, kResourceExhausted if the sender
  // is dead. Loss on the channel is silent (transport recovers).
  Status link_send(NodeId src, NodeId dst, Proto proto, Bytes payload);

  // Broadcast on one medium (or on every attached medium if `medium` is
  // invalid()). Wireless broadcasts reach all alive nodes in range; wired
  // broadcasts reach all nodes on the segment.
  Status link_broadcast(NodeId src, Proto proto, Bytes payload,
                        MediumId medium = MediumId::invalid());

  // Single-hop neighbours over any shared medium (alive nodes only).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;
  [[nodiscard]] bool in_link_range(NodeId a, NodeId b) const;

  // Energy a unicast of `payload_bytes` from a to b would cost the sender
  // (used by energy-aware routing metrics, §3.5).
  [[nodiscard]] double link_tx_cost(NodeId a, NodeId b, std::size_t payload_bytes) const;

  [[nodiscard]] const EnergyModel& energy_model() const { return energy_; }
  void set_energy_model(EnergyModel model) { energy_ = model; }

  [[nodiscard]] const NodeStats& stats(NodeId node) const;
  [[nodiscard]] const WorldStats& stats() const { return stats_; }
  void reset_stats();

  // Attach (or detach, with nullptr) a fault injector. At most one at a
  // time; the injector must outlive its attachment (FaultPlan detaches
  // itself in its destructor).
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  // Spatial-index consistency verifier (callable from any build): the
  // medium's cell index, brought up to date as a query would, holds
  // exactly the medium's members at their current positions, each in the
  // cell its position maps to, frozen for the current range. Aborts with
  // a diagnostic on violation. NDSM_AUDIT builds also cross-check every
  // kGridAuditSample-th index query against a brute-force range scan.
  void audit_verify_grid(MediumId medium) const;

  static constexpr std::uint64_t kGridAuditSample = 64;

 private:
  struct Node {
    Vec2 position;
    Battery battery;
    bool alive = true;
    std::vector<MediumId> media;
    std::map<Proto, LinkHandler> handlers;
    NodeStats stats;
    EventId motion = EventId::invalid();
    std::uint64_t tx_seq = 0;  // numbers its transmissions (net/faults.hpp)
  };

  struct Medium {
    LinkSpec spec;
    std::vector<NodeId> members;
    // Wireless only: the members' cell index, stale from the moment a
    // member attaches or moves or the range changes until the next query
    // rebuilds it (mutable: const queries rebuild it too).
    mutable CellIndex index;
    mutable bool index_stale = true;
  };

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Medium& medium(MediumId id);
  [[nodiscard]] const Medium& medium(MediumId id) const;

  // Best shared medium for a->b (wired preferred, then strongest wireless).
  [[nodiscard]] std::optional<MediumId> shared_medium(NodeId a, NodeId b) const;
  [[nodiscard]] static bool reachable_on(const Medium& m, const Node& a, const Node& b);

  // The medium's cell index, rebuilt first if it is stale.
  [[nodiscard]] const CellIndex& fresh_index(const Medium& m) const;
  // Append the members of `m` other than `src` that a frame from `src`
  // reaches, dead or alive: on a wireless medium those in range, in id
  // order (bumping the index counters); on a wired segment every member,
  // in attach order.
  void reached_members(const Medium& m, NodeId src, std::vector<NodeId>& out) const;

  // Count a transmission of `sender` on `medium`, number it and step the
  // sender's burst chain there.
  [[nodiscard]] Transmission transmit(Node& sender, NodeId src, MediumId medium,
                                      std::size_t payload_bytes, std::size_t wire_bytes);
  // The channel's verdict on one (transmission, receiver) pair, counted in
  // stats_; none if the frame is lost or dropped.
  [[nodiscard]] std::optional<FaultDecision> fate(const Transmission& tx, NodeId dst,
                                                  double loss_p);
  // One reception: liveness, rx energy, counters, then the handler.
  void receive(NodeId dst, const LinkFrame& frame, std::size_t wire_bytes);
  // Schedule one receiver's reception `delay` from now, delayed further
  // by `fault`, and its duplicate after it if `fault` asks for one.
  void deliver(NodeId dst, LinkFrame frame, Time delay, std::size_t wire_bytes,
               const FaultDecision& fault);
  bool charge_tx(NodeId src, const LinkSpec& spec, std::size_t wire_bytes, double distance_m);
  void charge_rx(NodeId dst, const LinkSpec& spec, std::size_t wire_bytes);
  void register_metrics();
  void register_node_metrics(NodeId id);

  sim::Simulator& sim_;
  DrawSeeds seeds_;
  EnergyModel energy_;
  std::vector<Node> nodes_;
  std::vector<Medium> media_;
  // mutable: const queries (neighbors) still record index counters.
  mutable WorldStats stats_;
  mutable std::uint64_t audit_grid_queries_ = 0;  // sampling counter (NDSM_AUDIT)
  FaultInjector* faults_ = nullptr;
  DeathHandler on_death_;
  mutable std::vector<NodeId> scratch_;  // receiver buffer for index queries
  // Declared last: the registry views point at stats_/nodes_ above.
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::net
