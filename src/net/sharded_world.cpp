#include "net/sharded_world.hpp"

#include <algorithm>

#include "common/audit.hpp"
#include "common/rng.hpp"

namespace ndsm::net {

ShardedWorld::ShardedWorld(ShardedWorldConfig config) : config_(config) {
  NDSM_INVARIANT(config_.shards >= 1, "ShardedWorld needs at least one shard");
  NDSM_INVARIANT(config_.workers >= 1, "ShardedWorld needs at least one worker");
  const std::uint64_t fault_seed = splitmix64(config_.seed ^ 0xfa117ab1e5ULL);
  for (std::uint64_t tag = kDrawLoss; tag <= kDrawRxKey; ++tag) {
    seeds_[tag] = splitmix64(fault_seed ^ tag);
  }
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

void ShardedWorld::set_faults(ShardedFaultPlan plan) {
  NDSM_INVARIANT(!sealed(), "set_faults() after seal()");
  NDSM_INVARIANT(plan.duplicate_extra_delay >= 1,
                 "a duplicate must trail its original by at least one tick");
  faults_ = std::move(plan);
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

double ShardedWorld::loss_probability(const LinkSpec& spec, std::size_t wire_bytes,
                                      Time sent_at) const {
  double p = frame_loss_probability(spec, wire_bytes);
  for (const ShardedFaultPlan::LossWindow& w : faults_.loss_windows) {
    if (sent_at >= w.start && sent_at < w.end) p += w.extra_loss;
  }
  return std::min(p, 1.0);
}

bool ShardedWorld::partitioned(Vec2 a, Vec2 b, Time sent_at) const {
  for (const ShardedFaultPlan::Partition& w : faults_.partitions) {
    if (sent_at >= w.start && sent_at < w.end && (a.x < w.cut_x) != (b.x < w.cut_x)) {
      return true;
    }
  }
  return false;
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

void ShardedWorld::process_tx(std::uint32_t shard, NodeId src, std::uint64_t tx_seq,
                              MediumId medium, Time sent_at, Time at,
                              std::size_t wire_bytes,
                              const std::shared_ptr<const Bytes>& buf) {
  const LinkSpec& spec = media_[medium.value()];
  const Vec2 src_pos = rec(src).pos;  // positions are immutable after seal
  Shard& sh = shards_[shard];

  // The in-range receivers in this shard, sorted by id so the
  // per-receiver decision sequence is free of cells and stripes.
  std::vector<NodeId>& receivers = sh.receivers;
  receivers.clear();
  sh.cells[medium.value()].gather(src_pos, src, receivers);
  std::sort(receivers.begin(), receivers.end());
  // The receivers' records are scattered over the node table and read one
  // by one below: start every load now.
  for (const NodeId id : receivers) __builtin_prefetch(&nodes_[id.value()]);
#if NDSM_AUDIT_ENABLED
  if (++sh.fanouts % kFanoutAuditSample == 0) {
    audit_verify_receivers(shard, src, medium, receivers);
  }
#endif

  const double loss_p = loss_probability(spec, wire_bytes, sent_at);
  // Every undelayed receiver gets this one frame; a jittered or duplicate
  // delivery carries a copy with its own time.
  const ShardFrame frame{src, kBroadcast, medium, at, buf};
  for (const NodeId dst_id : receivers) {
    NodeRec& dst = rec(dst_id);
    if (!dst.alive) continue;
    if (partitioned(src_pos, dst.pos, sent_at)) {
      sh.t.fault_drops++;
      continue;
    }
    // Counter-based draws: each decision is a pure function of the frame
    // identity (src, tx_seq, dst), so the loss/duplicate/jitter pattern is
    // bit-identical no matter how the world is partitioned or scheduled.
    if (loss_p > 0 &&
        hash_uniform(seeds_[kDrawLoss], src.value(), tx_seq, dst_id.value()) < loss_p) {
      sh.t.frames_lost++;
      continue;
    }
    Time deliver_at = at;
    if (faults_.jitter_max > 0 &&
        hash_uniform(seeds_[kDrawJitterGate], src.value(), tx_seq, dst_id.value()) <
            faults_.jitter_p) {
      const double u = hash_uniform(seeds_[kDrawJitterAmount], src.value(), tx_seq, dst_id.value());
      deliver_at += 1 + static_cast<Time>(u * static_cast<double>(faults_.jitter_max - 1));
      sh.t.fault_delays++;
    }
    if (deliver_at == at) {
      // Undelayed receivers are handled inline: the tx event itself is
      // keyed (kTx, src, tx_seq), which orders the whole fan-out.
      deliver(dst, frame, tx_seq);
    } else {
      ShardFrame late = frame;
      late.at = deliver_at;
      const std::uint64_t rx_key =
          hash_u64(seeds_[kDrawRxKey], src.value(), tx_seq, dst_id.value() * 2);
      engine_->schedule(shard, deliver_at, key_hi(kKindRx, dst_id), rx_key,
                        [this, dst_id, late, tx_seq] { deliver(rec(dst_id), late, tx_seq); });
    }
    if (faults_.duplicate_p > 0 &&
        hash_uniform(seeds_[kDrawDuplicate], src.value(), tx_seq, dst_id.value()) <
            faults_.duplicate_p) {
      sh.t.fault_duplicates++;
      ShardFrame dup = frame;
      dup.at = deliver_at + faults_.duplicate_extra_delay;
      const std::uint64_t rx_key =
          hash_u64(seeds_[kDrawRxKey], src.value(), tx_seq, dst_id.value() * 2 + 1);
      engine_->schedule(shard, dup.at, key_hi(kKindRx, dst_id), rx_key,
                        [this, dst_id, dup, tx_seq] { deliver(rec(dst_id), dup, tx_seq); });
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

  const Time now = engine_->now(s.shard);
  const auto buf = std::make_shared<const Bytes>(std::move(payload));
  for (const MediumId m : s.media) {
    if (medium.valid() && m != medium) continue;
    const LinkSpec& spec = media_[m.value()];
    const std::size_t wire_bytes = buf->size() + spec.header_bytes;
    const std::uint64_t tx_seq = s.tx_seq++;
    const Time at = now + transmission_delay(spec, buf->size());
    shards_[s.shard].t.frames_sent++;

    // One tx event per shard the transmission can touch: the sender's own
    // stripe locally, each adjacent stripe via the ordered mailbox. Every
    // shard computes its own receivers from its own index; the shared key
    // (kTx, src, tx_seq) keeps the fan-outs aligned across shardings.
    const auto tx = [this, src, tx_seq, m, now, at, wire_bytes, buf](std::uint32_t shard) {
      return [this, shard, src, tx_seq, m, now, at, wire_bytes, buf] {
        process_tx(shard, src, tx_seq, m, now, at, wire_bytes, buf);
      };
    };
    engine_->schedule(s.shard, at, key_hi(kKindTx, src), tx_seq, tx(s.shard));
    for (int d = -1; d <= 1; d += 2) {
      const std::int64_t nbr = static_cast<std::int64_t>(s.shard) + d;
      if (nbr < 0 || nbr >= static_cast<std::int64_t>(map_->shards())) continue;
      if (!map_->reaches(s.pos, spec.range_m, static_cast<std::size_t>(nbr))) continue;
      engine_->post(s.shard, static_cast<std::uint32_t>(nbr), at, key_hi(kKindTx, src),
                    tx_seq, tx(static_cast<std::uint32_t>(nbr)));
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
  const Time now = engine_->now(s.shard);
  const std::size_t wire_bytes = payload.size() + spec.header_bytes;
  const std::uint64_t tx_seq = s.tx_seq++;
  Totals& stats = shards_[s.shard].t;
  stats.frames_sent++;

  if (partitioned(s.pos, d.pos, now)) {
    stats.fault_drops++;
    return Status::ok();  // silently dropped; reliability is transport's job
  }
  const double loss_p = loss_probability(spec, wire_bytes, now);
  if (loss_p > 0 && hash_uniform(seeds_[kDrawLoss], src.value(), tx_seq, dst.value()) < loss_p) {
    stats.frames_lost++;
    return Status::ok();
  }

  Time at = now + transmission_delay(spec, payload.size());
  if (faults_.jitter_max > 0 &&
      hash_uniform(seeds_[kDrawJitterGate], src.value(), tx_seq, dst.value()) < faults_.jitter_p) {
    const double u = hash_uniform(seeds_[kDrawJitterAmount], src.value(), tx_seq, dst.value());
    at += 1 + static_cast<Time>(u * static_cast<double>(faults_.jitter_max - 1));
    stats.fault_delays++;
  }

  const auto buf = std::make_shared<const Bytes>(std::move(payload));
  const auto schedule_rx = [this, &s, dst](Time when, std::uint64_t rx_key,
                                           ShardFrame frame, std::uint64_t uid) {
    const std::uint32_t home = rec(dst).shard;
    auto fn = [this, dst, frame = std::move(frame), uid] { deliver(rec(dst), frame, uid); };
    if (home == s.shard) {
      engine_->schedule(home, when, key_hi(kKindRx, dst), rx_key, std::move(fn));
    } else {
      engine_->post(s.shard, home, when, key_hi(kKindRx, dst), rx_key, std::move(fn));
      shards_[s.shard].t.cross_shard_transmissions++;
    }
  };
  schedule_rx(at, hash_u64(seeds_[kDrawRxKey], src.value(), tx_seq, dst.value() * 2),
              ShardFrame{src, dst, chosen, at, buf}, tx_seq);

  if (faults_.duplicate_p > 0 &&
      hash_uniform(seeds_[kDrawDuplicate], src.value(), tx_seq, dst.value()) <
          faults_.duplicate_p) {
    stats.fault_duplicates++;
    const Time dup_at = at + faults_.duplicate_extra_delay;
    schedule_rx(dup_at, hash_u64(seeds_[kDrawRxKey], src.value(), tx_seq, dst.value() * 2 + 1),
                ShardFrame{src, dst, chosen, dup_at, buf}, tx_seq);
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
