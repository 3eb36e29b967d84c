#include "net/world.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace ndsm::net {

World::World(sim::Simulator& sim) : sim_(&sim), seeds_(draw_seeds(sim.seed())), shards_(1) {
  register_metrics();
}

World::World(WorldConfig config)
    : config_(config), sim_(nullptr), seeds_(draw_seeds(config.seed)), shards_(1) {
  NDSM_INVARIANT(config.shards >= 1, "a sharded World needs at least one shard");
  NDSM_INVARIANT(config.workers >= 1, "a sharded World needs at least one worker");
  register_metrics();
}

sim::Simulator& World::sim() {
  NDSM_INVARIANT(sim_ != nullptr, "sim() of a sharded World before seal()");
  return *sim_;
}

namespace {

// WorldStats' counters, each exported as net.world.<name>.
constexpr std::pair<const char*, std::uint64_t WorldStats::*> kWorldCounters[] = {
    {"frames_sent", &WorldStats::frames_sent},
    {"frames_delivered", &WorldStats::frames_delivered},
    {"frames_lost", &WorldStats::frames_lost},
    {"bytes_on_wire", &WorldStats::bytes_on_wire},
    {"grid_cells_scanned", &WorldStats::grid_cells_scanned},
    {"grid_candidates", &WorldStats::grid_candidates},
    {"payload_copies_avoided", &WorldStats::payload_copies_avoided},
    {"fault_drops", &WorldStats::fault_drops},
    {"fault_duplicates", &WorldStats::fault_duplicates},
    {"fault_delays", &WorldStats::fault_delays},
    {"cross_shard_transmissions", &WorldStats::cross_shard_transmissions},
};

// NodeStats' counters, each exported per node as net.world.node.<name>.
constexpr std::pair<const char*, std::uint64_t NodeStats::*> kNodeCounters[] = {
    {"frames_sent", &NodeStats::frames_sent},
    {"frames_received", &NodeStats::frames_received},
    {"bytes_sent", &NodeStats::bytes_sent},
    {"bytes_received", &NodeStats::bytes_received},
};

}  // namespace

void World::register_metrics() {
  metrics_.set_labels("net.world");
  for (const auto& [name, field] : kWorldCounters) {
    metrics_.counter_fn(std::string("net.world.") + name, [this, field] { return stats().*field; });
  }
  metrics_.gauge("net.world.nodes_alive", [this] {
    double alive = 0;
    for (const Node& n : nodes_) alive += n.alive ? 1 : 0;
    return alive;
  });
  metrics_.gauge("net.world.energy_consumed_j", [this] {
    double consumed = 0;
    for (const Battery& b : batteries_) {
      if (b.finite()) consumed += b.initial() - b.remaining();
    }
    return consumed;
  });
  // Per-node rows, labelled by node id: one family each, enumerated at
  // export time, so a node adds no registry entry.
  const auto rows = [this] { return nodes_.size(); };
  for (const auto& [name, field] : kNodeCounters) {
    metrics_.family(std::string("net.world.node.") + name, obs::MetricKind::kCounter, rows,
                    [this, field](std::size_t i) { return static_cast<double>(nodes_[i].stats.*field); });
  }
  metrics_.family("net.world.node.battery_j", obs::MetricKind::kGauge, rows, [this](std::size_t i) {
    const Battery& b = battery(NodeId{i});
    return b.finite() ? b.remaining() : -1.0;
  });
}

// --- guards -------------------------------------------------------------------

void World::assert_unsealed(const char* what) const {
  NDSM_INVARIANT(!sharded() || !sealed(), what);
}

void World::assert_owner(const Node& n, const char* what) const {
  if (!sharded()) return;
  NDSM_INVARIANT(sealed(), "link-layer calls on a sharded World need seal() first");
  NDSM_INVARIANT(sim_->current_shard() == n.shard, what);
}

// --- topology -------------------------------------------------------------------

MediumId World::add_medium(LinkSpec spec) {
  assert_unsealed("add_medium() on a sealed sharded World");
  NDSM_INVARIANT(!sharded() || (spec.wireless && spec.range_m > 0),
                 "a sharded World runs wireless media only");
  NDSM_INVARIANT(media_.size() < kMaxMedia, "a World holds at most 64 media");
  media_.emplace_back().spec = std::move(spec);
  for (Shard& sh : shards_) sh.cells.emplace_back();
  return MediumId{media_.size() - 1};
}

NodeId World::add_node(Vec2 position, Battery battery) {
  assert_unsealed("add_node() on a sealed sharded World");
  Node& n = nodes_.emplace_back();
  n.position = position;
  const NodeId id{nodes_.size() - 1};
  if (battery.finite()) set_battery(id, battery);
  return id;
}

void World::attach(NodeId node_id, MediumId medium_id) {
  assert_unsealed("attach() on a sealed sharded World");
  auto& n = node_ref(node_id);
  const std::uint64_t bit = std::uint64_t{1} << medium_id.value();
  if ((n.media & bit) != 0) return;
  Medium& m = medium(medium_id);
  m.members.insert(std::upper_bound(m.members.begin(), m.members.end(), node_id), node_id);
  m.index_stale = true;
  n.media |= bit;
}

const LinkSpec& World::medium_spec(MediumId id) const { return medium(id).spec; }

void World::set_medium_range(MediumId id, double range_m) {
  assert_unsealed("set_medium_range() on a sealed sharded World");
  Medium& m = medium(id);
  m.spec.range_m = range_m;
  m.index_stale = true;
}

std::vector<MediumId> World::media_of(NodeId id) const {
  std::vector<MediumId> out;
  for (std::uint64_t rest = node_ref(id).media; rest != 0; rest &= rest - 1) {
    out.push_back(lowest(rest));
  }
  return out;
}

std::vector<NodeId> World::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) out.emplace_back(i);
  return out;
}

// --- spatial index ----------------------------------------------------------

void World::build_index(MediumId id) const {
  const Medium& m = medium(id);
  for (Shard& sh : shards_) sh.cells[id.value()].clear();
  for (const NodeId member : m.members) {
    const Node& n = node_ref(member);
    shards_[n.shard].cells[id.value()].add(member, n.position);
  }
  for (Shard& sh : shards_) sh.cells[id.value()].freeze(m.spec.range_m);
  m.index_stale = false;
}

void World::reached(std::uint32_t shard, MediumId medium_id, NodeId src,
                    std::vector<NodeId>& out) const {
  const Medium& m = medium(medium_id);
  if (!m.spec.wireless) {  // one shard: a wired segment connects its members
    for (const NodeId member : m.members) {
      if (member != src) out.push_back(member);
    }
    return;
  }
  if (m.index_stale) build_index(medium_id);
  Shard& sh = shards_[shard];
  const Node& sender = node_ref(src);
  const std::size_t before = out.size();
  // On the sender's own shard its own cell holds it.
  sh.stats.grid_candidates += sh.cells[medium_id.value()].gather(sender.position, src, out) -
                              (sender.shard == shard ? 1 : 0);
  sh.stats.grid_cells_scanned += 9;
  // The index lists by cell; sort so delivery order is a function of the
  // receiver set alone.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
#if NDSM_AUDIT_ENABLED
  // Sampled cross-check against a brute-force range scan. Counter-based
  // sampling keeps the event sequence identical to an unaudited run.
  if (++sh.queries % kGridAuditSample == 0) {
    std::vector<NodeId> expected;
    for (const NodeId member : m.members) {
      const Node& n = node_ref(member);
      if (member != src && n.shard == shard && reachable_on(m, sender, n)) {
        expected.push_back(member);
      }
    }
    NDSM_INVARIANT(std::equal(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
                              expected.begin(), expected.end()),
                   "cell index receivers differ from a brute-force range scan");
  }
#endif
}

void World::audit_verify_grid(MediumId id) const {
  const Medium& m = medium(id);
  if (!m.spec.wireless) return;
  if (m.index_stale) build_index(id);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::vector<std::pair<NodeId, Vec2>> expected;
    for (const NodeId member : m.members) {
      if (node_ref(member).shard == s) expected.emplace_back(member, node_ref(member).position);
    }
    NDSM_INVARIANT(shards_[s].cells[id.value()].holds(m.spec.range_m, std::move(expected)),
                   "cell index disagrees with the medium's range, members or their positions");
  }
}

// --- positions & mobility -------------------------------------------------------

Vec2 World::position(NodeId id) const { return node_ref(id).position; }

void World::set_position(NodeId id, Vec2 position) {
  assert_unsealed("set_position() on a sealed sharded World (mobility is one-shard only)");
  Node& n = node_ref(id);
  n.position = position;
  for (std::uint64_t rest = n.media; rest != 0; rest &= rest - 1) {
    medium(lowest(rest)).index_stale = true;
  }
}

void World::stop_motion(NodeId id) {
  const auto it = motion_.find(id);
  if (it == motion_.end()) return;
  sim_->cancel(it->second);
  motion_.erase(it);
}

void World::move_linear(NodeId id, Vec2 destination, double speed_m_per_s, Time tick) {
  NDSM_INVARIANT(!sharded(), "move_linear() on a sharded World (mobility is one-shard only)");
  assert(speed_m_per_s > 0);
  stop_motion(id);
  step_toward(id, destination, speed_m_per_s * to_seconds(tick), tick);
}

// One step of a motion, a timer on the node's timeline. Position updates
// go through set_position, so the cell index is rebuilt for them.
void World::step_toward(NodeId id, Vec2 destination, double step_m, Time tick) {
  motion_[id] = schedule_keyed(id, sim_->now() + tick, kKindTimer, [=, this] {
    motion_.erase(id);
    const Vec2 delta = destination - position(id);
    const double dist = delta.norm();
    if (dist <= step_m) {
      set_position(id, destination);
      return;
    }
    set_position(id, position(id) + delta * (step_m / dist));
    step_toward(id, destination, step_m, tick);
  });
}

// --- liveness & energy ----------------------------------------------------------

bool World::alive(NodeId id) const { return node_ref(id).alive; }

void World::mix_control(Node& n, std::uint64_t tag) {
  n.digest = fnv_fold(n.digest, 0xc0117701ULL ^ tag);
  n.digest = fnv_fold(n.digest, static_cast<std::uint64_t>(sim_->now(n.shard)));
}

void World::kill(NodeId id) {
  Node& n = node_ref(id);
  assert_owner(n, "kill() outside the node's owner-shard context");
  if (!n.alive) return;
  n.alive = false;
  mix_control(n, 1);
  if (sharded()) return;  // no motion, death handler or single-timeline trace there
  stop_motion(id);
  NDSM_DEBUG("net", "node " << id.value() << " died at " << format_time(sim_->now()));
  obs::Tracer::instance().event("net.world", "node_death",
                                static_cast<std::int64_t>(id.value()),
                                {{"battery_depleted", battery(id).depleted() ? "true" : "false"}});
  if (on_death_) on_death_(id);
}

void World::revive(NodeId id) {
  Node& n = node_ref(id);
  assert_owner(n, "revive() outside the node's owner-shard context");
  if (n.alive || battery(id).depleted()) return;  // an exhausted battery stays dead
  n.alive = true;
  mix_control(n, 2);
}

const Battery& World::battery(NodeId id) const {
  static const Battery mains = Battery::mains();
  return id.value() < batteries_.size() ? batteries_[id.value()] : mains;
}

void World::set_battery(NodeId id, Battery battery) {
  (void)node_ref(id);
  if (id.value() >= batteries_.size()) {
    if (!battery.finite()) return;
    NDSM_INVARIANT(!sharded(), "a finite battery on a sharded World (mains power only)");
    batteries_.resize(id.value() + 1);
  }
  batteries_[id.value()] = battery;
}

bool World::draw(NodeId id, double joules) {
  if (id.value() >= batteries_.size() || batteries_[id.value()].consume(joules)) return true;
  kill(id);
  return false;
}

void World::drain(NodeId id, double joules) {
  if (node_ref(id).alive) (void)draw(id, joules);
}

void World::set_death_handler(DeathHandler handler) {
  NDSM_INVARIANT(!sharded(), "set_death_handler() on a sharded World");
  on_death_ = std::move(handler);
}

// --- node timelines -------------------------------------------------------------

EventId World::schedule_keyed(NodeId node, Time at, std::uint64_t kind,
                              std::function<void()> fn) {
  Node& n = node_ref(node);
  const std::uint64_t seq = n.seq++;
  if (sim_ == nullptr) {
    pending_.push_back(PendingEvent{node, at, kind, seq, std::move(fn)});
    return EventId::invalid();
  }
  return sim_->schedule(n.shard, at, key_hi(kind, node), seq, std::move(fn));
}

void World::schedule(NodeId node, Time at, std::function<void()> fn) {
  (void)schedule_keyed(node, at, kKindTimer, [this, node, f = std::move(fn)] {
    if (node_ref(node).alive) f();
  });
}

void World::kill_at(NodeId node, Time at) {
  (void)schedule_keyed(node, at, kKindControl, [this, node] { kill(node); });
}

void World::revive_at(NodeId node, Time at) {
  (void)schedule_keyed(node, at, kKindControl, [this, node] { revive(node); });
}

void World::seal() {
  NDSM_INVARIANT(sharded() && !sealed(), "seal() is for a sharded World, once");
  NDSM_INVARIANT(!media_.empty(), "seal() needs at least one medium (lookahead source)");
  NDSM_INVARIANT(!nodes_.empty(), "seal() needs at least one node");

  const auto [west, east] = std::minmax_element(
      nodes_.begin(), nodes_.end(),
      [](const Node& a, const Node& b) { return a.position.x < b.position.x; });
  // Lookahead: no frame arrives sooner than the fastest medium moves an
  // empty frame (propagation plus header serialization). Every delivery
  // delay is at least that, which is the engine's cross-shard post
  // contract.
  double max_range = 0;
  Time lookahead = kTimeNever;
  for (const Medium& m : media_) {
    max_range = std::max(max_range, m.spec.range_m);
    lookahead = std::min(lookahead, transmission_delay(m.spec, 0));
  }
  map_.emplace(west->position.x, east->position.x, max_range, config_->shards);
  engine_ = std::make_unique<sim::Simulator>(sim::SimulatorConfig{
      .shards = map_->shards(),
      .workers = config_->workers,
      .lookahead = std::max<Time>(lookahead, 1),
      .seed = config_->seed,
  });
  sim_ = engine_.get();

  shards_.resize(map_->shards());
  for (Shard& sh : shards_) sh.cells.resize(media_.size());
  for (Node& n : nodes_) n.shard = static_cast<std::uint32_t>(map_->shard_of(n.position));
  for (std::size_t m = 0; m < media_.size(); ++m) build_index(MediumId{m});
  for (PendingEvent& p : pending_) {
    sim_->schedule(node_ref(p.node).shard, p.at, key_hi(p.kind, p.node), p.seq, std::move(p.fn));
  }
  pending_ = {};
}

void World::run_until(Time deadline) {
  if (sharded() && !sealed()) seal();
  sim_->run_until(deadline);
}

// --- link layer -------------------------------------------------------------------

void World::set_handler(NodeId id, Proto proto, LinkHandler handler) {
  assert_unsealed("set_handler() on a sealed sharded World");
  (void)node_ref(id);
  const auto p = static_cast<std::size_t>(proto);
  NDSM_INVARIANT(p < kProtoSlots, "set_handler() with an unknown Proto");
  handlers_[p].slot(id) = std::move(handler);
}

void World::clear_handler(NodeId id, Proto proto) {
  const auto p = static_cast<std::size_t>(proto);
  LinkHandler* handler = p < kProtoSlots ? handlers_[p].find(id) : nullptr;
  if (handler != nullptr) *handler = nullptr;
}

void World::dispatch(NodeId dst, const LinkFrame& frame) {
  const LinkHandler* handler = handler_of(dst, frame.proto);
  if (handler != nullptr && *handler) (*handler)(frame);
}

bool World::reachable_on(const Medium& m, const Node& a, const Node& b) {
  if (!m.spec.wireless) return true;  // wired segment: all members connected
  return distance(a.position, b.position) <= m.spec.range_m;
}

std::optional<MediumId> World::shared_medium(NodeId a_id, NodeId b_id) const {
  const Node& a = node_ref(a_id);
  const Node& b = node_ref(b_id);
  std::optional<MediumId> best;
  double best_bw = -1;
  for (std::uint64_t rest = a.media & b.media; rest != 0; rest &= rest - 1) {
    const MediumId m_id = lowest(rest);
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

Transmission World::transmit(Node& sender, NodeId src, MediumId medium_id,
                              std::size_t payload_bytes, std::size_t wire_bytes) {
  Shard& sh = shards_[sender.shard];
  sender.stats.frames_sent++;
  sender.stats.bytes_sent += payload_bytes;
  sh.stats.frames_sent++;
  sh.stats.bytes_on_wire += wire_bytes;
  Transmission tx{src, sender.tx_seq++, medium_id, sim_->now(sender.shard)};
  if (injector_ != nullptr) {
    injector_->on_transmit(tx);
  } else {
    tx.burst_loss = faults_.step_burst(seeds_, tx, sh.bursting);
  }
  return tx;
}

// Inline: it runs for every receiver of every fan-out.
inline std::optional<FaultDecision> World::fate(Shard& sh, const Transmission& tx, NodeId dst,
                                                double loss_p) {
  if (!channel_lost(seeds_, tx, dst, loss_p)) {
    const FaultDecision d =
        injector_ != nullptr ? injector_->on_frame(tx, dst) : faults_.decide(seeds_, tx, dst);
    if (!d.drop) {
      sh.stats.fault_delays += d.extra_delay > 0 ? 1 : 0;
      sh.stats.fault_duplicates += d.duplicate ? 1 : 0;
      return d;
    }
    sh.stats.fault_drops++;
  }
  sh.stats.frames_lost++;
  return std::nullopt;
}

void World::receive(Shard& sh, NodeId dst, const LinkFrame& frame, Time at,
                    std::uint64_t tx_seq, std::size_t wire_bytes) {
  Node& n = nodes_[dst.value()];
  if (!n.alive) return;  // may have died in flight (or earlier in the fan-out)
  if (dst.value() < batteries_.size() && medium(frame.medium).spec.wireless &&
      !draw(dst, energy_.rx_cost(wire_bytes * 8))) {
    return;  // the rx cost killed it
  }
  const std::size_t bytes = frame.payload().size();
  n.stats.frames_received++;
  n.stats.bytes_received += bytes;
  n.digest = fnv_fold(n.digest, static_cast<std::uint64_t>(at));
  n.digest = fnv_fold(n.digest, frame.src.value());
  n.digest = fnv_fold(n.digest, tx_seq);
  n.digest = fnv_fold(n.digest, bytes);
  sh.stats.frames_delivered++;
  dispatch(dst, frame);
}

void World::schedule_rx(std::uint32_t from, NodeId dst, std::uint64_t copy, LinkFrame frame,
                        Time at, std::uint64_t tx_seq, std::size_t wire_bytes) {
  const std::uint32_t home = node_ref(dst).shard;
  const std::uint64_t rx_key =
      hash_u64(seeds_[kDrawRxKey], frame.src.value(), tx_seq, dst.value() * 2 + copy);
  auto fn = [this, home, dst, frame = std::move(frame), at, tx_seq, wire_bytes] {
    receive(shards_[home], dst, frame, at, tx_seq, wire_bytes);
  };
  if (home == from) {
    sim_->schedule(home, at, key_hi(kKindRx, dst), rx_key, std::move(fn));
    return;
  }
  sim_->post(from, home, at, key_hi(kKindRx, dst), rx_key, std::move(fn));
  shards_[from].stats.cross_shard_transmissions++;
}

void World::fan_out(std::uint32_t shard, const Transmission& tx, Proto proto, double loss_p,
                    std::size_t wire_bytes, const std::shared_ptr<const Bytes>& buf) {
  Shard& sh = shards_[shard];
  std::vector<NodeId>& receivers = sh.receivers;
  receivers.clear();
  reached(shard, tx.medium, tx.src, receivers);
  // A wireless fan-out's receivers are scattered over the node and
  // handler tables and read one by one below: start every load now. (A
  // wired segment's are every member, read in id order.)
  if (medium(tx.medium).spec.wireless) {
    for (const NodeId id : receivers) {
      const Node& n = nodes_[id.value()];
      __builtin_prefetch(&n.alive);
      __builtin_prefetch(&n.stats.bytes_received);
      __builtin_prefetch(handler_of(id, proto));
    }
  }

  const Time at = sim_->now(shard);
  // Every undelayed receiver gets this one frame.
  const LinkFrame frame{tx.src, kBroadcast, tx.medium, proto, buf};
  const bool spare = spared(tx, loss_p);
  std::uint64_t sharing = 0;
  for (const NodeId dst : receivers) {
    if (!nodes_[dst.value()].alive) continue;
    const std::optional<FaultDecision> d = spare ? FaultDecision{} : fate(sh, tx, dst, loss_p);
    if (!d) continue;
    const Time late_at = at + d->extra_delay;
    if (late_at == at) {
      // The tx event's key (kTx, src, tx_seq) orders the whole fan-out.
      receive(sh, dst, frame, at, tx.seq, wire_bytes);
      sharing++;
    } else {
      schedule_rx(shard, dst, 0, frame, late_at, tx.seq, wire_bytes);
    }
    if (d->duplicate) {
      schedule_rx(shard, dst, 1, frame, late_at + d->duplicate_extra_delay, tx.seq, wire_bytes);
    }
  }
  if (sharing > 1) sh.stats.payload_copies_avoided += sharing - 1;
}

Status World::link_send(NodeId src, NodeId dst, Proto proto, Bytes payload) {
  Node& sender = node_ref(src);
  assert_owner(sender, "link_send() outside the sender's owner-shard context");
  if (!sender.alive) return Status{ErrorCode::kResourceExhausted, "sender dead"};
  if (src == dst) {
    // Loopback: deliver at once with no wire cost.
    schedule(dst, sim_->now(sender.shard),
             [this, dst, frame = LinkFrame{src, dst, MediumId::invalid(), proto,
                                           std::make_shared<const Bytes>(std::move(payload))}] {
               dispatch(dst, frame);
             });
    return Status::ok();
  }
  const auto m_id = shared_medium(src, dst);
  if (!m_id) return Status{ErrorCode::kUnreachable, "no shared medium in range"};
  const LinkSpec& spec = medium(*m_id).spec;
  const std::size_t wire_bytes = payload.size() + spec.header_bytes;
  const Transmission tx = transmit(sender, src, *m_id, payload.size(), wire_bytes);
  if (spec.wireless &&
      !draw(src, energy_.tx_cost(wire_bytes * 8, distance(sender.position, position(dst))))) {
    return Status{ErrorCode::kResourceExhausted, "battery exhausted during tx"};
  }
  const std::optional<FaultDecision> fault =
      fate(shards_[sender.shard], tx, dst, frame_loss_probability(spec, wire_bytes));
  if (!fault) return Status::ok();  // silently lost; reliability is transport's job
  const Time at = tx.sent_at + transmission_delay(spec, payload.size()) + fault->extra_delay;
  const LinkFrame frame{src, dst, *m_id, proto, std::make_shared<const Bytes>(std::move(payload))};
  schedule_rx(sender.shard, dst, 0, frame, at, tx.seq, wire_bytes);
  if (fault->duplicate) {
    schedule_rx(sender.shard, dst, 1, frame, at + fault->duplicate_extra_delay, tx.seq,
                wire_bytes);
  }
  return Status::ok();
}

Status World::link_broadcast(NodeId src, Proto proto, Bytes payload, MediumId medium_filter) {
  Node& sender = node_ref(src);
  assert_owner(sender, "link_broadcast() outside the sender's owner-shard context");
  if (!sender.alive) return Status{ErrorCode::kResourceExhausted, "sender dead"};
  // One immutable buffer for the whole fan-out: every receiver on every
  // attached medium shares it instead of copying the payload.
  const auto buf = std::make_shared<const Bytes>(std::move(payload));
  bool sent_any = false;
  for (std::uint64_t rest = sender.media; rest != 0; rest &= rest - 1) {
    const MediumId m_id = lowest(rest);
    if (medium_filter.valid() && m_id != medium_filter) continue;
    const LinkSpec& spec = medium(m_id).spec;
    const std::size_t wire_bytes = buf->size() + spec.header_bytes;
    const Transmission tx = transmit(sender, src, m_id, buf->size(), wire_bytes);
    // Broadcast transmits at full range power.
    if (spec.wireless && !draw(src, energy_.tx_cost(wire_bytes * 8, spec.range_m))) {
      return Status{ErrorCode::kResourceExhausted, "battery exhausted during tx"};
    }
    sent_any = true;
    const Time at = tx.sent_at + transmission_delay(spec, buf->size());
    const double loss_p = frame_loss_probability(spec, wire_bytes);
    // One event per shard the transmission can reach: the sender's own,
    // and an adjacent stripe through the engine's mailbox when the range
    // crosses the cut. Each gathers its own receivers; the shared key
    // (kTx, src, tx_seq) keeps the fan-outs aligned across shardings.
    const auto fan_out_on = [this, tx, proto, loss_p, wire_bytes, buf](std::uint32_t shard) {
      return [this, shard, tx, proto, loss_p, wire_bytes, buf] {
        fan_out(shard, tx, proto, loss_p, wire_bytes, buf);
      };
    };
    sim_->schedule(sender.shard, at, key_hi(kKindTx, src), tx.seq, fan_out_on(sender.shard));
    for (const std::uint32_t nbr : {sender.shard - 1, sender.shard + 1}) {
      if (shards_.size() == 1 || nbr >= shards_.size() ||
          !map_->reaches(sender.position, spec.range_m, nbr)) {
        continue;
      }
      sim_->post(sender.shard, nbr, at, key_hi(kKindTx, src), tx.seq, fan_out_on(nbr));
      shards_[sender.shard].stats.cross_shard_transmissions++;
    }
  }
  return sent_any ? Status::ok()
                  : Status{ErrorCode::kUnreachable, "no medium to broadcast on"};
}

std::vector<NodeId> World::neighbors(NodeId id) const {
  NDSM_INVARIANT(!sharded(), "neighbors() on a sharded World");
  std::vector<NodeId> out;
  for (std::uint64_t rest = node_ref(id).media; rest != 0; rest &= rest - 1) {
    reached(0, lowest(rest), id, out);
  }
  out.erase(std::remove_if(out.begin(), out.end(), [this](NodeId n) { return !alive(n); }),
            out.end());
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
  const double dist = distance(node_ref(a).position, node_ref(b).position);
  return energy_.tx_cost((payload_bytes + spec.header_bytes) * 8, dist);
}

const NodeStats& World::stats(NodeId id) const { return node_ref(id).stats; }

WorldStats World::stats() const {
  WorldStats out;
  for (const Shard& sh : shards_) {
    for (const auto& [name, field] : kWorldCounters) out.*field += sh.stats.*field;
  }
  return out;
}

void World::reset_stats() {
  for (Shard& sh : shards_) sh.stats = WorldStats{};
  for (Node& n : nodes_) n.stats = NodeStats{};
}

std::uint64_t World::fold_digests(std::optional<std::size_t> shard) const {
  std::uint64_t d = kFnvBasis;
  for (const Node& n : nodes_) {
    if (shard && n.shard != *shard) continue;
    d = fnv_fold(d, n.digest);
    d = fnv_fold(d, n.stats.frames_received);
  }
  return d;
}

std::uint64_t World::digest() const { return fold_digests(std::nullopt); }

std::uint64_t World::shard_digest(std::size_t s) const { return fold_digests(s); }

// --- faults -------------------------------------------------------------------------

void World::set_faults(ChannelFaults faults) {
  assert_unsealed("set_faults() on a sealed sharded World");
  faults_ = std::move(faults);
}

void World::set_fault_injector(FaultInjector* injector) {
  NDSM_INVARIANT(injector == nullptr || !sharded(),
                 "a FaultInjector on a sharded World (it takes set_faults())");
  injector_ = injector;
}

World::Node& World::node_ref(NodeId id) {
  NDSM_INVARIANT(id.value() < nodes_.size(), "unknown NodeId in World");
  return nodes_[id.value()];
}

const World::Node& World::node_ref(NodeId id) const {
  NDSM_INVARIANT(id.value() < nodes_.size(), "unknown NodeId in World");
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
