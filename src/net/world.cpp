#include "net/world.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace ndsm::net {

void World::register_metrics() {
  metrics_.set_labels("net.world");
  metrics_.counter("net.world.frames_sent", &stats_.frames_sent);
  metrics_.counter("net.world.frames_delivered", &stats_.frames_delivered);
  metrics_.counter("net.world.frames_lost", &stats_.frames_lost);
  metrics_.counter("net.world.bytes_on_wire", &stats_.bytes_on_wire);
  metrics_.counter("net.world.grid_cells_scanned", &stats_.grid_cells_scanned);
  metrics_.counter("net.world.grid_candidates", &stats_.grid_candidates);
  metrics_.counter("net.world.payload_copies_avoided", &stats_.payload_copies_avoided);
  metrics_.counter("net.world.fault_drops", &stats_.fault_drops);
  metrics_.counter("net.world.fault_duplicates", &stats_.fault_duplicates);
  metrics_.counter("net.world.fault_delays", &stats_.fault_delays);
  metrics_.gauge("net.world.nodes_alive", [this] {
    double alive = 0;
    for (const Node& n : nodes_) alive += n.alive ? 1 : 0;
    return alive;
  });
  metrics_.gauge("net.world.energy_consumed_j", [this] {
    double consumed = 0;
    for (const Node& n : nodes_) {
      if (n.battery.finite()) consumed += n.battery.initial() - n.battery.remaining();
    }
    return consumed;
  });
}

MediumId World::add_medium(LinkSpec spec) {
  media_.emplace_back().spec = std::move(spec);
  return MediumId{media_.size() - 1};
}

// Per-node series. The Node lives in a reallocating vector, so these are
// pull callbacks through the stable (World*, NodeId) pair rather than
// field pointers.
void World::register_node_metrics(NodeId id) {
  obs::MetricGroup& g = metrics_;  // node metrics share the World's lifetime
  const obs::MetricLabels saved = g.labels();
  g.set_labels("net.world", static_cast<std::int64_t>(id.value()));
  g.counter_fn("net.world.node.frames_sent", [this, id] { return node(id).stats.frames_sent; });
  g.counter_fn("net.world.node.frames_received",
               [this, id] { return node(id).stats.frames_received; });
  g.counter_fn("net.world.node.bytes_sent", [this, id] { return node(id).stats.bytes_sent; });
  g.counter_fn("net.world.node.bytes_received",
               [this, id] { return node(id).stats.bytes_received; });
  g.gauge("net.world.node.battery_j", [this, id] {
    const Battery& b = node(id).battery;
    return b.finite() ? b.remaining() : -1.0;
  });
  g.set_labels(saved.component, saved.node);
}

NodeId World::add_node(Vec2 position, Battery battery) {
  Node n;
  n.position = position;
  n.battery = battery;
  nodes_.push_back(std::move(n));
  const NodeId id{nodes_.size() - 1};
  register_node_metrics(id);
  return id;
}

void World::attach(NodeId node_id, MediumId medium_id) {
  auto& n = node(node_id);
  if (std::find(n.media.begin(), n.media.end(), medium_id) != n.media.end()) return;
  Medium& m = medium(medium_id);
  m.members.push_back(node_id);
  m.index_stale = true;
  n.media.push_back(medium_id);
}

const LinkSpec& World::medium_spec(MediumId id) const { return medium(id).spec; }

void World::set_medium_range(MediumId id, double range_m) {
  Medium& m = medium(id);
  m.spec.range_m = range_m;
  m.index_stale = true;
}

std::vector<MediumId> World::media_of(NodeId id) const { return node(id).media; }

std::vector<NodeId> World::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) out.emplace_back(i);
  return out;
}

// --- spatial index ----------------------------------------------------------

const CellIndex& World::fresh_index(const Medium& m) const {
  if (m.index_stale) {
    m.index.clear();
    for (const NodeId member : m.members) m.index.add(member, node(member).position);
    m.index.freeze(m.spec.range_m);
    m.index_stale = false;
  }
  return m.index;
}

void World::reached_members(const Medium& m, NodeId src, std::vector<NodeId>& out) const {
  if (!m.spec.wireless) {
    for (const NodeId member : m.members) {
      if (member != src) out.push_back(member);
    }
    return;
  }
  const std::size_t before = out.size();
  const Vec2 center = node(src).position;
  // `src` is a member, so its own cell holds it: every other member of
  // the 3x3 cells is a candidate.
  stats_.grid_candidates += fresh_index(m).gather(center, src, out) - 1;
  stats_.grid_cells_scanned += 9;
  // The index lists by cell; sort so delivery order is a function of the
  // receiver set alone.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
#if NDSM_AUDIT_ENABLED
  // Sampled cross-check against a brute-force range scan. Counter-based
  // sampling keeps the event/RNG sequence identical to an unaudited run.
  if (++audit_grid_queries_ % kGridAuditSample == 0) {
    std::vector<NodeId> expected;
    for (const NodeId member : m.members) {
      if (member != src && reachable_on(m, node(src), node(member))) expected.push_back(member);
    }
    std::sort(expected.begin(), expected.end());
    NDSM_INVARIANT(std::equal(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
                              expected.begin(), expected.end()),
                   "cell index receivers differ from a brute-force range scan");
  }
#endif
}

void World::audit_verify_grid(MediumId id) const {
  const Medium& m = medium(id);
  if (!m.spec.wireless) return;
  std::vector<std::pair<NodeId, Vec2>> expected;
  for (const NodeId member : m.members) expected.emplace_back(member, node(member).position);
  NDSM_INVARIANT(fresh_index(m).holds(m.spec.range_m, std::move(expected)),
                 "cell index disagrees with the medium's range, members or their positions");
}

Vec2 World::position(NodeId id) const { return node(id).position; }

void World::set_position(NodeId id, Vec2 position) {
  Node& n = node(id);
  n.position = position;
  for (const MediumId m : n.media) medium(m).index_stale = true;
}

void World::move_linear(NodeId id, Vec2 destination, double speed_m_per_s, Time tick) {
  assert(speed_m_per_s > 0);
  auto& n = node(id);
  if (n.motion.valid()) {
    sim_.cancel(n.motion);
    n.motion = EventId::invalid();
  }
  const double step_m = speed_m_per_s * to_seconds(tick);
  // Self-rescheduling step; recaptures the node each tick (the node vector
  // may reallocate between ticks). Position updates go through
  // set_position so the cell index is rebuilt for the new position.
  struct Mover {
    World* world;
    NodeId id;
    Vec2 dest;
    double step_m;
    Time tick;
    void operator()() const {
      auto& n = world->node(id);
      n.motion = EventId::invalid();
      if (!n.alive) return;
      const Vec2 delta = dest - n.position;
      const double dist = delta.norm();
      if (dist <= step_m) {
        world->set_position(id, dest);
        return;
      }
      world->set_position(id, n.position + delta * (step_m / dist));
      n.motion = world->sim_.schedule_after(tick, *this);
    }
  };
  n.motion = sim_.schedule_after(tick, Mover{this, id, destination, step_m, tick});
}

bool World::alive(NodeId id) const { return node(id).alive; }

void World::kill(NodeId id) {
  auto& n = node(id);
  if (!n.alive) return;
  n.alive = false;
  if (n.motion.valid()) {
    sim_.cancel(n.motion);
    n.motion = EventId::invalid();
  }
  NDSM_DEBUG("net", "node " << id.value() << " died at " << format_time(sim_.now()));
  obs::Tracer::instance().event("net.world", "node_death",
                                static_cast<std::int64_t>(id.value()),
                                {{"battery_depleted", n.battery.depleted() ? "true" : "false"}});
  if (on_death_) on_death_(id);
}

void World::revive(NodeId id) {
  auto& n = node(id);
  if (n.battery.depleted()) return;  // cannot revive an exhausted battery
  n.alive = true;
}

const Battery& World::battery(NodeId id) const { return node(id).battery; }

void World::set_battery(NodeId id, Battery battery) { node(id).battery = battery; }

void World::drain(NodeId id, double joules) {
  auto& n = node(id);
  if (!n.alive) return;
  if (!n.battery.consume(joules)) kill(id);
}

void World::set_handler(NodeId id, Proto proto, LinkHandler handler) {
  node(id).handlers[proto] = std::move(handler);
}

void World::clear_handler(NodeId id, Proto proto) { node(id).handlers.erase(proto); }

bool World::reachable_on(const Medium& m, const Node& a, const Node& b) {
  if (!m.spec.wireless) return true;  // wired segment: all members connected
  return distance(a.position, b.position) <= m.spec.range_m;
}

std::optional<MediumId> World::shared_medium(NodeId a_id, NodeId b_id) const {
  const Node& a = node(a_id);
  const Node& b = node(b_id);
  std::optional<MediumId> best;
  double best_bw = -1;
  for (const MediumId m_id : a.media) {
    if (std::find(b.media.begin(), b.media.end(), m_id) == b.media.end()) continue;
    const Medium& m = medium(m_id);
    if (!reachable_on(m, a, b)) continue;
    // Prefer wired, then highest bandwidth.
    const double score = (m.spec.wireless ? 0.0 : 1e12) + m.spec.bandwidth_bps;
    if (score > best_bw) {
      best_bw = score;
      best = m_id;
    }
  }
  return best;
}

bool World::charge_tx(NodeId src, const LinkSpec& spec, std::size_t wire_bytes,
                      double distance_m) {
  if (!spec.wireless) return true;  // wired interfaces are mains powered here
  auto& n = node(src);
  const double cost = energy_.tx_cost(wire_bytes * 8, distance_m);
  if (!n.battery.consume(cost)) {
    kill(src);
    return false;
  }
  return true;
}

void World::charge_rx(NodeId dst, const LinkSpec& spec, std::size_t wire_bytes) {
  if (!spec.wireless) return;
  auto& n = node(dst);
  if (!n.battery.consume(energy_.rx_cost(wire_bytes * 8))) kill(dst);
}

Transmission World::transmit(Node& sender, NodeId src, MediumId medium,
                              std::size_t payload_bytes, std::size_t wire_bytes) {
  sender.stats.frames_sent++;
  sender.stats.bytes_sent += payload_bytes;
  stats_.frames_sent++;
  stats_.bytes_on_wire += wire_bytes;
  Transmission tx{src, sender.tx_seq++, medium, sim_.now()};
  if (faults_ != nullptr) faults_->on_transmit(tx);
  return tx;
}

// Inline: it runs for every receiver of every fan-out.
inline std::optional<FaultDecision> World::fate(const Transmission& tx, NodeId dst, double loss_p) {
  if (!channel_lost(seeds_, tx, dst, loss_p)) {
    const FaultDecision fault = faults_ != nullptr ? faults_->on_frame(tx, dst) : FaultDecision{};
    if (!fault.drop) return fault;
    stats_.fault_drops++;
  }
  stats_.frames_lost++;
  return std::nullopt;
}

void World::receive(NodeId dst, const LinkFrame& frame, std::size_t wire_bytes) {
  Node& receiver = node(dst);
  if (!receiver.alive) return;  // may have died in flight (or mid-batch)
  charge_rx(dst, medium(frame.medium).spec, wire_bytes);
  if (!receiver.alive) return;  // rx cost may have killed it
  receiver.stats.frames_received++;
  receiver.stats.bytes_received += frame.payload().size();
  stats_.frames_delivered++;
  const auto it = receiver.handlers.find(frame.proto);
  if (it != receiver.handlers.end()) it->second(frame);
}

void World::deliver(NodeId dst, LinkFrame frame, Time delay, std::size_t wire_bytes,
                    const FaultDecision& fault) {
  const auto rx = [this, dst, wire_bytes](LinkFrame f) {
    return [this, dst, wire_bytes, f = std::move(f)] { receive(dst, f, wire_bytes); };
  };
  if (fault.extra_delay > 0) {
    delay += fault.extra_delay;
    stats_.fault_delays++;
  }
  if (!fault.duplicate) {
    sim_.schedule_after(delay, rx(std::move(frame)));
    return;
  }
  // Original first, copy second (at >= its time): a duplicate delivered
  // at the same instant still executes after the frame it copies.
  stats_.fault_duplicates++;
  sim_.schedule_after(delay, rx(frame));
  sim_.schedule_after(delay + fault.duplicate_extra_delay, rx(std::move(frame)));
}

Status World::link_send(NodeId src, NodeId dst, Proto proto, Bytes payload) {
  Node& sender = node(src);
  if (!sender.alive) return Status{ErrorCode::kResourceExhausted, "sender dead"};
  if (src == dst) {
    // Loopback: deliver immediately with no wire cost.
    LinkFrame frame{src, dst, MediumId::invalid(), proto,
                    std::make_shared<const Bytes>(std::move(payload))};
    sim_.schedule_after(0, [this, dst, frame = std::move(frame)]() {
      Node& receiver = node(dst);
      if (!receiver.alive) return;
      const auto it = receiver.handlers.find(frame.proto);
      if (it != receiver.handlers.end()) it->second(frame);
    });
    return Status::ok();
  }
  const auto m_id = shared_medium(src, dst);
  if (!m_id) return Status{ErrorCode::kUnreachable, "no shared medium in range"};
  const Medium& m = medium(*m_id);
  const std::size_t wire_bytes = payload.size() + m.spec.header_bytes;
  const double dist = distance(sender.position, node(dst).position);

  const Transmission tx = transmit(sender, src, *m_id, payload.size(), wire_bytes);

  if (!charge_tx(src, m.spec, wire_bytes, m.spec.wireless ? dist : 0.0)) {
    return Status{ErrorCode::kResourceExhausted, "battery exhausted during tx"};
  }
  const std::optional<FaultDecision> fault =
      fate(tx, dst, frame_loss_probability(m.spec, wire_bytes));
  if (!fault) {
    sender.stats.frames_dropped++;
    return Status::ok();  // silently lost; reliability is transport's job
  }
  const Time delay = transmission_delay(m.spec, payload.size());
  deliver(dst, LinkFrame{src, dst, *m_id, proto, std::make_shared<const Bytes>(std::move(payload))},
          delay, wire_bytes, *fault);
  return Status::ok();
}

Status World::link_broadcast(NodeId src, Proto proto, Bytes payload, MediumId medium_filter) {
  Node& sender = node(src);
  if (!sender.alive) return Status{ErrorCode::kResourceExhausted, "sender dead"};
  // One immutable buffer for the whole fan-out: every receiver on every
  // attached medium shares it instead of copying the payload.
  const auto buf = std::make_shared<const Bytes>(std::move(payload));
  bool sent_any = false;
  for (const MediumId m_id : sender.media) {
    if (medium_filter.valid() && m_id != medium_filter) continue;
    const Medium& m = medium(m_id);
    const std::size_t wire_bytes = buf->size() + m.spec.header_bytes;
    const Transmission tx = transmit(sender, src, m_id, buf->size(), wire_bytes);
    // Broadcast transmits at full range power.
    if (!charge_tx(src, m.spec, wire_bytes, m.spec.wireless ? m.spec.range_m : 0.0)) {
      return Status{ErrorCode::kResourceExhausted, "battery exhausted during tx"};
    }
    sent_any = true;
    const Time delay = transmission_delay(m.spec, buf->size());
    // On a wireless medium only the 3x3 cells around the sender can be in
    // range: O(density), not O(N).
    scratch_.clear();
    reached_members(m, src, scratch_);
    const double loss_p = frame_loss_probability(m.spec, wire_bytes);
    // Without loss or an injector every alive member receives.
    const bool spared = loss_p == 0 && faults_ == nullptr;
    std::vector<NodeId> receivers;
    receivers.reserve(scratch_.size());
    for (const NodeId member : scratch_) {
      if (!node(member).alive) continue;
      const std::optional<FaultDecision> fault =
          spared ? FaultDecision{} : fate(tx, member, loss_p);
      if (!fault) continue;
      if (fault->extra_delay > 0 || fault->duplicate) {
        // Jittered or duplicated receivers leave the batched fan-out.
        deliver(member, LinkFrame{src, kBroadcast, m_id, proto, buf}, delay, wire_bytes, *fault);
        continue;
      }
      receivers.push_back(member);
    }
    if (receivers.size() > 1) stats_.payload_copies_avoided += receivers.size() - 1;
    if (!receivers.empty()) {
      // Every receiver of the transmission arrives at the same instant, so
      // one event delivers to all of them in order: the sequence separate
      // events would produce, at 1/N the scheduling cost.
      sim_.schedule_after(delay, [this, receivers = std::move(receivers),
                                  frame = LinkFrame{src, kBroadcast, m_id, proto, buf},
                                  wire_bytes] {
        for (const NodeId dst : receivers) receive(dst, frame, wire_bytes);
      });
    }
  }
  return sent_any ? Status::ok()
                  : Status{ErrorCode::kUnreachable, "no medium to broadcast on"};
}

std::vector<NodeId> World::neighbors(NodeId id) const {
  const Node& n = node(id);
  std::vector<NodeId> out;
  for (const MediumId m_id : n.media) {
    scratch_.clear();
    reached_members(medium(m_id), id, scratch_);
    for (const NodeId member : scratch_) {
      if (node(member).alive) out.push_back(member);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool World::in_link_range(NodeId a, NodeId b) const {
  return shared_medium(a, b).has_value();
}

double World::link_tx_cost(NodeId a, NodeId b, std::size_t payload_bytes) const {
  const auto m_id = shared_medium(a, b);
  if (!m_id) return std::numeric_limits<double>::infinity();
  const LinkSpec& spec = medium(*m_id).spec;
  if (!spec.wireless) return 0.0;
  const double dist = distance(node(a).position, node(b).position);
  return energy_.tx_cost((payload_bytes + spec.header_bytes) * 8, dist);
}

const NodeStats& World::stats(NodeId id) const { return node(id).stats; }

void World::reset_stats() {
  stats_ = WorldStats{};
  for (auto& n : nodes_) n.stats = NodeStats{};
}

World::Node& World::node(NodeId id) {
  assert(id.value() < nodes_.size());
  return nodes_[id.value()];
}

const World::Node& World::node(NodeId id) const {
  assert(id.value() < nodes_.size());
  return nodes_[id.value()];
}

World::Medium& World::medium(MediumId id) {
  assert(id.value() < media_.size());
  return media_[id.value()];
}

const World::Medium& World::medium(MediumId id) const {
  assert(id.value() < media_.size());
  return media_[id.value()];
}

}  // namespace ndsm::net
