#include "net/sharded_world.hpp"

#include <algorithm>

#include "common/audit.hpp"
#include "common/rng.hpp"

namespace ndsm::net {

ShardedWorld::ShardedWorld(ShardedWorldConfig config)
    : config_(config), seeds_(draw_seeds(config.seed)) {
  NDSM_INVARIANT(config_.shards >= 1, "ShardedWorld needs at least one shard");
  NDSM_INVARIANT(config_.workers >= 1, "ShardedWorld needs at least one worker");
}

ShardedWorld::NodeRec& ShardedWorld::rec(NodeId id) {
  NDSM_INVARIANT(id.value() < nodes_.size(), "unknown NodeId in ShardedWorld");
  return nodes_[id.value()];
}

const ShardedWorld::NodeRec& ShardedWorld::rec(NodeId id) const {
  NDSM_INVARIANT(id.value() < nodes_.size(), "unknown NodeId in ShardedWorld");
  return nodes_[id.value()];
}

MediumId ShardedWorld::add_medium(LinkSpec spec) {
  NDSM_INVARIANT(!sealed(), "add_medium() after seal()");
  NDSM_INVARIANT(spec.wireless && spec.range_m > 0,
                 "ShardedWorld v1 supports wireless media only");
  media_.push_back(std::move(spec));
  return MediumId{media_.size() - 1};
}

NodeId ShardedWorld::add_node(Vec2 position) {
  NDSM_INVARIANT(!sealed(), "add_node() after seal()");
  NodeRec n;
  n.pos = position;
  nodes_.push_back(std::move(n));
  return NodeId{nodes_.size() - 1};
}

void ShardedWorld::attach(NodeId node, MediumId medium) {
  NDSM_INVARIANT(!sealed(), "attach() after seal()");
  NDSM_INVARIANT(medium.value() < media_.size(), "attach() to an unknown medium");
  NodeRec& n = rec(node);
  if (std::find(n.media.begin(), n.media.end(), medium) != n.media.end()) return;
  n.media.push_back(medium);
}

void ShardedWorld::set_handler(NodeId node, Handler handler) {
  NDSM_INVARIANT(!sealed(), "set_handler() after seal()");
  rec(node).handler = std::move(handler);
}

void ShardedWorld::set_faults(ChannelFaults faults) {
  NDSM_INVARIANT(!sealed(), "set_faults() after seal()");
  faults_ = std::move(faults);
}

void ShardedWorld::schedule_keyed(NodeId node, Time at, std::uint64_t kind,
                                  std::uint64_t key_lo, std::function<void()> fn) {
  if (!sealed()) {
    pending_.push_back(PendingEvent{node, at, kind, key_lo, std::move(fn)});
    return;
  }
  engine_->schedule(rec(node).shard, at, key_hi(kind, node), key_lo, std::move(fn));
}

void ShardedWorld::schedule(NodeId node, Time at, std::function<void()> fn) {
  NodeRec& n = rec(node);
  schedule_keyed(node, at, kKindTimer, n.timer_seq++,
                 [this, node, f = std::move(fn)] {
                   if (rec(node).alive) f();
                 });
}

void ShardedWorld::kill_at(NodeId node, Time at) {
  NodeRec& n = rec(node);
  schedule_keyed(node, at, kKindControl, n.control_seq++, [this, node] { kill(node); });
}

void ShardedWorld::revive_at(NodeId node, Time at) {
  NodeRec& n = rec(node);
  schedule_keyed(node, at, kKindControl, n.control_seq++, [this, node] { revive(node); });
}

void ShardedWorld::seal() {
  NDSM_INVARIANT(!sealed(), "seal() called twice");
  NDSM_INVARIANT(!media_.empty(), "seal() needs at least one medium (lookahead source)");
  NDSM_INVARIANT(!nodes_.empty(), "seal() needs at least one node");

  double min_x = nodes_.front().pos.x;
  double max_x = min_x;
  for (const NodeRec& n : nodes_) {
    min_x = std::min(min_x, n.pos.x);
    max_x = std::max(max_x, n.pos.x);
  }
  double max_range = 0;
  // Lookahead: no frame can arrive faster than the cheapest medium moves
  // its empty frame — min over media of propagation + header serialization.
  // Every actual delivery delay is >= this (payload only adds bits), which
  // is exactly the engine's cross-shard post contract.
  Time lookahead = kTimeNever;
  for (const LinkSpec& m : media_) {
    max_range = std::max(max_range, m.range_m);
    lookahead = std::min(lookahead, transmission_delay(m, 0));
  }
  lookahead = std::max<Time>(lookahead, 1);

  map_ = std::make_unique<ShardMap>(min_x, max_x, max_range, config_.shards);
  engine_ = std::make_unique<sim::Simulator>(sim::SimulatorConfig{
      .shards = map_->shards(),
      .workers = config_.workers,
      .lookahead = lookahead,
      .seed = config_.seed,
  });

  shards_.resize(map_->shards());
  for (Shard& sh : shards_) sh.cells.resize(media_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeRec& n = nodes_[i];
    n.shard = static_cast<std::uint32_t>(map_->shard_of(n.pos));
    for (const MediumId m : n.media) shards_[n.shard].cells[m.value()].add(NodeId{i}, n.pos);
  }
  for (Shard& sh : shards_) {
    for (std::size_t m = 0; m < media_.size(); ++m) sh.cells[m].freeze(media_[m].range_m);
  }

  for (PendingEvent& p : pending_) {
    engine_->schedule(rec(p.node).shard, p.at, key_hi(p.kind, p.node), p.seq,
                      std::move(p.fn));
  }
  pending_.clear();
  register_metrics();
}

void ShardedWorld::run_until(Time deadline) {
  if (!sealed()) seal();
  engine_->run_until(deadline);
}

std::size_t ShardedWorld::shard_count() const {
  return map_ ? map_->shards() : config_.shards;
}

sim::Simulator& ShardedWorld::engine() {
  NDSM_INVARIANT(engine_ != nullptr, "engine() before seal()");
  return *engine_;
}

void ShardedWorld::assert_owner_context(const NodeRec& n, const char* what) const {
  NDSM_INVARIANT(sealed(), "link-layer calls require a sealed world");
  NDSM_INVARIANT(engine_->current_shard() == n.shard, what);
}

void ShardedWorld::deliver(NodeRec& n, const ShardFrame& frame, std::uint64_t tx_uid) {
  if (!n.alive) return;
  n.delivered++;
  n.digest = fnv_fold(n.digest, static_cast<std::uint64_t>(frame.at));
  n.digest = fnv_fold(n.digest, frame.src.value());
  n.digest = fnv_fold(n.digest, tx_uid);
  n.digest = fnv_fold(n.digest, frame.payload().size());
  shards_[n.shard].t.frames_delivered++;
  if (n.handler) n.handler(frame);
}

void ShardedWorld::mix_control(NodeRec& n, Time at, std::uint64_t tag) {
  n.digest = fnv_fold(n.digest, 0xc0117701ULL ^ tag);
  n.digest = fnv_fold(n.digest, static_cast<std::uint64_t>(at));
}

void ShardedWorld::kill(NodeId node) {
  NodeRec& n = rec(node);
  assert_owner_context(n, "kill() outside the node's owner-shard context");
  if (!n.alive) return;
  n.alive = false;
  mix_control(n, engine_->now(n.shard), 1);
}

void ShardedWorld::revive(NodeId node) {
  NodeRec& n = rec(node);
  assert_owner_context(n, "revive() outside the node's owner-shard context");
  if (n.alive) return;
  n.alive = true;
  mix_control(n, engine_->now(n.shard), 2);
}

Transmission ShardedWorld::transmit(NodeRec& s, NodeId src, MediumId medium) {
  Transmission tx{src, s.tx_seq++, medium, engine_->now(s.shard)};
  tx.burst_loss = faults_.step_burst(seeds_, tx, shards_[s.shard].bursting);
  shards_[s.shard].t.frames_sent++;
  return tx;
}

// Inline: it runs for every receiver of every fan-out.
inline std::optional<FaultDecision> ShardedWorld::fate(Shard& sh, const Transmission& tx,
                                                       NodeId dst, double loss_p) const {
  if (channel_lost(seeds_, tx, dst, loss_p)) {
    sh.t.frames_lost++;
    return std::nullopt;
  }
  const FaultDecision d = faults_.decide(seeds_, tx, dst);
  if (d.drop) {
    sh.t.fault_drops++;
    return std::nullopt;
  }
  if (d.extra_delay > 0) sh.t.fault_delays++;
  if (d.duplicate) sh.t.fault_duplicates++;
  return d;
}

void ShardedWorld::schedule_rx(std::uint32_t from, NodeId dst, std::uint64_t copy,
                               ShardFrame frame, Time at, std::uint64_t tx_seq) {
  const std::uint32_t home = rec(dst).shard;
  frame.at = at;
  const std::uint64_t rx_key =
      hash_u64(seeds_[kDrawRxKey], frame.src.value(), tx_seq, dst.value() * 2 + copy);
  auto fn = [this, dst, frame = std::move(frame), tx_seq] { deliver(rec(dst), frame, tx_seq); };
  if (home == from) {
    engine_->schedule(home, at, key_hi(kKindRx, dst), rx_key, std::move(fn));
    return;
  }
  engine_->post(from, home, at, key_hi(kKindRx, dst), rx_key, std::move(fn));
  shards_[from].t.cross_shard_transmissions++;
}

void ShardedWorld::process_tx(std::uint32_t shard, const Transmission& tx, Time at,
                              double loss_p, const std::shared_ptr<const Bytes>& buf) {
  const Vec2 src_pos = rec(tx.src).pos;  // positions are immutable after seal
  Shard& sh = shards_[shard];

  // The in-range receivers in this shard, sorted by id so the
  // per-receiver decision sequence is free of cells and stripes.
  std::vector<NodeId>& receivers = sh.receivers;
  receivers.clear();
  sh.cells[tx.medium.value()].gather(src_pos, tx.src, receivers);
  std::sort(receivers.begin(), receivers.end());
  // The receivers' records are scattered over the node table and read one
  // by one below: start every load now.
  for (const NodeId id : receivers) __builtin_prefetch(&nodes_[id.value()]);
#if NDSM_AUDIT_ENABLED
  if (++sh.fanouts % kFanoutAuditSample == 0) {
    audit_verify_receivers(shard, tx.src, tx.medium, receivers);
  }
#endif

  // Every undelayed receiver gets this one frame; a jittered or duplicate
  // delivery carries a copy with its own time.
  const ShardFrame frame{tx.src, kBroadcast, tx.medium, at, buf};
  // A transmission no loss or fault can touch skips the per-receiver
  // decisions.
  const bool spared = loss_p == 0 && faults_.spares(tx);
  for (const NodeId dst_id : receivers) {
    NodeRec& dst = rec(dst_id);
    if (!dst.alive) continue;
    if (spared) {
      deliver(dst, frame, tx.seq);
      continue;
    }
    const std::optional<FaultDecision> d = fate(sh, tx, dst_id, loss_p);
    if (!d) continue;
    const Time late_at = at + d->extra_delay;
    if (late_at == at) {
      // Undelayed receivers are handled inline: the tx event itself is
      // keyed (kTx, src, tx_seq), which orders the whole fan-out.
      deliver(dst, frame, tx.seq);
    } else {
      schedule_rx(shard, dst_id, 0, frame, late_at, tx.seq);
    }
    if (d->duplicate) {
      schedule_rx(shard, dst_id, 1, frame, late_at + d->duplicate_extra_delay, tx.seq);
    }
  }
}

void ShardedWorld::audit_verify_receivers(std::uint32_t shard, NodeId src, MediumId medium,
                                          const std::vector<NodeId>& receivers) const {
  const Vec2 src_pos = rec(src).pos;
  const double range_m = media_[medium.value()].range_m;
  std::vector<NodeId> expected;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeRec& n = nodes_[i];
    if (n.shard != shard || NodeId{i} == src) continue;
    if (std::find(n.media.begin(), n.media.end(), medium) == n.media.end()) continue;
    if (distance(src_pos, n.pos) > range_m) continue;
    expected.push_back(NodeId{i});
  }
  NDSM_INVARIANT(receivers == expected,
                 "cell index fan-out differs from a brute-force range scan");
}

Status ShardedWorld::broadcast(NodeId src, Bytes payload, MediumId medium) {
  NodeRec& s = rec(src);
  assert_owner_context(s, "broadcast() outside the sender's owner-shard context");
  if (!s.alive) return Status{ErrorCode::kResourceExhausted, "sender is dead"};
  if (s.media.empty()) return Status{ErrorCode::kUnreachable, "sender has no interface"};

  const auto buf = std::make_shared<const Bytes>(std::move(payload));
  for (const MediumId m : s.media) {
    if (medium.valid() && m != medium) continue;
    const LinkSpec& spec = media_[m.value()];
    const Transmission tx = transmit(s, src, m);
    const Time at = tx.sent_at + transmission_delay(spec, buf->size());
    const double loss_p = frame_loss_probability(spec, buf->size() + spec.header_bytes);

    // One tx event per shard the transmission can touch: the sender's own
    // stripe locally, each adjacent stripe via the ordered mailbox. Every
    // shard computes its own receivers from its own index; the shared key
    // (kTx, src, tx_seq) keeps the fan-outs aligned across shardings.
    const auto fan_out = [this, tx, at, loss_p, buf](std::uint32_t shard) {
      return [this, shard, tx, at, loss_p, buf] { process_tx(shard, tx, at, loss_p, buf); };
    };
    engine_->schedule(s.shard, at, key_hi(kKindTx, src), tx.seq, fan_out(s.shard));
    for (int d = -1; d <= 1; d += 2) {
      const std::int64_t nbr = static_cast<std::int64_t>(s.shard) + d;
      if (nbr < 0 || nbr >= static_cast<std::int64_t>(map_->shards())) continue;
      if (!map_->reaches(s.pos, spec.range_m, static_cast<std::size_t>(nbr))) continue;
      engine_->post(s.shard, static_cast<std::uint32_t>(nbr), at, key_hi(kKindTx, src),
                    tx.seq, fan_out(static_cast<std::uint32_t>(nbr)));
      shards_[s.shard].t.cross_shard_transmissions++;
    }
  }
  return Status::ok();
}

Status ShardedWorld::send(NodeId src, NodeId dst, Bytes payload) {
  NodeRec& s = rec(src);
  assert_owner_context(s, "send() outside the sender's owner-shard context");
  if (!s.alive) return Status{ErrorCode::kResourceExhausted, "sender is dead"};
  const NodeRec& d = rec(dst);

  // First shared in-range medium (attachment lists and positions are
  // immutable after seal, so reading the destination cross-shard is safe;
  // its liveness is checked owner-side at delivery time).
  MediumId chosen = MediumId::invalid();
  for (const MediumId m : s.media) {
    if (std::find(d.media.begin(), d.media.end(), m) == d.media.end()) continue;
    if (distance(s.pos, d.pos) > media_[m.value()].range_m) continue;
    chosen = m;
    break;
  }
  if (!chosen.valid()) return Status{ErrorCode::kUnreachable, "no shared in-range medium"};

  const LinkSpec& spec = media_[chosen.value()];
  const Transmission tx = transmit(s, src, chosen);
  const std::optional<FaultDecision> fault = fate(
      shards_[s.shard], tx, dst, frame_loss_probability(spec, payload.size() + spec.header_bytes));
  if (!fault) return Status::ok();  // silently lost; reliability is transport's job

  const Time at = tx.sent_at + transmission_delay(spec, payload.size()) + fault->extra_delay;
  const ShardFrame frame{src, dst, chosen, at, std::make_shared<const Bytes>(std::move(payload))};
  schedule_rx(s.shard, dst, 0, frame, at, tx.seq);
  if (fault->duplicate) {
    schedule_rx(s.shard, dst, 1, frame, at + fault->duplicate_extra_delay, tx.seq);
  }
  return Status::ok();
}

std::uint64_t ShardedWorld::digest() const {
  std::uint64_t d = kFnvBasis;
  for (const NodeRec& n : nodes_) {
    d = fnv_fold(d, n.digest);
    d = fnv_fold(d, n.delivered);
  }
  return d;
}

std::uint64_t ShardedWorld::shard_digest(std::size_t s) const {
  std::uint64_t d = kFnvBasis;
  for (const NodeRec& n : nodes_) {
    if (n.shard != s) continue;
    d = fnv_fold(d, n.digest);
    d = fnv_fold(d, n.delivered);
  }
  return d;
}

ShardedWorld::Totals ShardedWorld::totals() const {
  Totals out;
  for (const Shard& s : shards_) {
    out.frames_sent += s.t.frames_sent;
    out.frames_delivered += s.t.frames_delivered;
    out.frames_lost += s.t.frames_lost;
    out.fault_drops += s.t.fault_drops;
    out.fault_duplicates += s.t.fault_duplicates;
    out.fault_delays += s.t.fault_delays;
    out.cross_shard_transmissions += s.t.cross_shard_transmissions;
  }
  return out;
}

void ShardedWorld::register_metrics() {
  metrics_.set_labels("net.sharded");
  metrics_.counter_fn("net.sharded.frames_sent", [this] { return totals().frames_sent; });
  metrics_.counter_fn("net.sharded.frames_delivered",
                      [this] { return totals().frames_delivered; });
  metrics_.counter_fn("net.sharded.frames_lost", [this] { return totals().frames_lost; });
  metrics_.counter_fn("net.sharded.fault_drops", [this] { return totals().fault_drops; });
  metrics_.counter_fn("net.sharded.cross_shard_transmissions",
                      [this] { return totals().cross_shard_transmissions; });
  metrics_.gauge("net.sharded.nodes",
                 [this] { return static_cast<double>(nodes_.size()); });
  // Per-shard delivery series, labelled by shard index: partition skew is
  // visible as divergence between the series.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    metrics_.set_labels("net.sharded", static_cast<std::int64_t>(s));
    metrics_.counter_fn("net.sharded.shard_frames_delivered",
                        [this, s] { return shards_[s].t.frames_delivered; });
  }
  metrics_.set_labels("net.sharded");
}

}  // namespace ndsm::net
