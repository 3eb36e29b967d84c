#include "discovery/distributed.hpp"

namespace ndsm::discovery {

DistributedDiscovery::DistributedDiscovery(transport::ReliableTransport& transport,
                                           DistributedConfig config)
    : transport_(transport),
      config_(config),
      advertiser_(transport.router().stack(),
                  config.advertise_period > 0 ? config.advertise_period
                                              : duration::seconds(1),
                  [this] { advertise(); }) {
  register_stats_metrics("distributed", static_cast<std::int64_t>(transport.self().value()));
  transport_.router().set_delivery_handler(
      routing::Proto::kDiscovery,
      [this](NodeId origin, const Bytes& b) { on_flood(origin, b); });
  transport_.set_receiver(transport::ports::kDiscoveryReplyDist,
                          [this](NodeId src, const Bytes& b) { on_unicast(src, b); });
  if (config_.advertise_period > 0) {
    advertiser_.start(duration::millis(static_cast<std::int64_t>(
        transport.router().stack().fork_rng(transport.self().value() ^ 0xad).uniform_int(
            1, 500))));
  }
}

DistributedDiscovery::~DistributedDiscovery() {
  transport_.router().clear_delivery_handler(routing::Proto::kDiscovery);
  transport_.clear_receiver(transport::ports::kDiscoveryReplyDist);
  auto& stack = transport_.router().stack();
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [id, pending] : pending_) {
    if (pending.timer.valid()) stack.cancel(pending.timer);
  }
}

ServiceId DistributedDiscovery::register_service(qos::SupplierQos qos, Time lease) {
  const Time now = transport_.router().stack().now();
  const ServiceId id = make_service_id(transport_.self(), next_service_++);
  ServiceRecord rec;
  rec.id = id;
  rec.provider = transport_.self();
  rec.qos = std::move(qos);
  rec.registered = now;
  rec.expires = lease == kTimeNever ? kTimeNever : now + lease;
  local_.emplace(id, std::move(rec));
  local_lease_[id] = lease;
  stats_.registrations++;
  // In reactive mode registration is free; in proactive mode the next
  // advertisement round announces it.
  return id;
}

void DistributedDiscovery::unregister_service(ServiceId id) {
  local_lease_.erase(id);
  if (local_.erase(id) > 0) stats_.unregistrations++;
}

std::vector<ServiceRecord> DistributedDiscovery::match_local(
    const qos::ConsumerQos& consumer, std::uint32_t max_results) const {
  const Time now = transport_.router().stack().now();
  // Local records renew automatically while this node lives: refresh their
  // leases before matching (the ServiceDiscovery contract; expiry only
  // governs *remote* copies).
  auto& self = const_cast<DistributedDiscovery&>(*this);
  for (auto& [id, rec] : self.local_) {
    const Time lease = local_lease_.at(id);
    rec.expires = lease == kTimeNever ? kTimeNever : now + lease;
  }
  std::vector<const ServiceRecord*> live;
  for (const auto& [id, rec] : local_) {
    if (!rec.expired(now)) live.push_back(&rec);
  }
  return best_matches(consumer, live, max_results);
}

std::vector<ServiceRecord> DistributedDiscovery::match_cache(
    const qos::ConsumerQos& consumer, std::uint32_t max_results) const {
  const Time now = transport_.router().stack().now();
  std::vector<const ServiceRecord*> fresh;
  for (const auto& [id, rec] : cache_) {
    if (rec.expired(now)) continue;
    if (now - rec.registered > config_.cache_entry_ttl) continue;  // stale cache entry
    fresh.push_back(&rec);
  }
  return best_matches(consumer, fresh, max_results);
}

void DistributedDiscovery::advertise() {
  auto& stack = transport_.router().stack();
  if (!stack.online()) {
    advertiser_.stop();
    return;
  }
  if (local_.empty()) return;
  std::vector<ServiceRecord> records;
  records.reserve(local_.size());
  const Time now = stack.now();
  for (auto& [id, rec] : local_) {
    // Stamp freshness (and renew the local lease) so peers can expire
    // cache entries relative to the latest advertisement.
    rec.registered = now;
    const Time lease = local_lease_.at(id);
    rec.expires = lease == kTimeNever ? kTimeNever : now + lease;
    records.push_back(rec);
  }
  if (records.empty()) return;
  transport_.router().flood(routing::Proto::kDiscovery, encode_advertise(records));
}

void DistributedDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                                 std::uint32_t max_results, Time timeout) {
  auto& stack = transport_.router().stack();
  stats_.queries_issued++;

  if (config_.advertise_period > 0) {
    auto cached = match_cache(consumer, max_results);
    auto own = match_local(consumer, max_results);
    for (auto& rec : own) cached.push_back(std::move(rec));
    if (!cached.empty()) {
      // Deduplicate and deliver asynchronously (callers expect async).
      std::map<ServiceId, ServiceRecord> dedup;
      for (auto& rec : cached) dedup.emplace(rec.id, std::move(rec));
      std::vector<ServiceRecord> out;
      for (auto& [id, rec] : dedup) {
        if (out.size() >= max_results) break;
        out.push_back(std::move(rec));
      }
      stats_.queries_answered++;
      stats_.records_received += out.size();
      stack.schedule_after(0, [cb = std::move(callback), out = std::move(out)]() mutable {
        cb(std::move(out));
      });
      return;
    }
  }

  const std::uint64_t query_id = next_query_++;
  QueryMessage msg;
  msg.query_id = query_id;
  msg.reply_to = transport_.self();
  msg.reply_port = transport::ports::kDiscoveryReplyDist;
  msg.consumer = consumer;
  msg.max_results = max_results;

  PendingQuery pending;
  pending.callback = std::move(callback);
  pending.max_results = max_results;
  pending.timer = stack.schedule_after(timeout, [this, query_id] { finish_query(query_id); });
  pending_.emplace(query_id, std::move(pending));

  transport_.router().flood(routing::Proto::kDiscovery, encode_query(msg));
}

void DistributedDiscovery::finish_query(std::uint64_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  if (it->second.timer.valid()) transport_.router().stack().cancel(it->second.timer);
  auto cb = std::move(it->second.callback);
  std::vector<ServiceRecord> out;
  for (auto& [id, rec] : it->second.collected) out.push_back(std::move(rec));
  pending_.erase(it);
  if (out.empty()) {
    stats_.queries_empty++;
  } else {
    stats_.queries_answered++;
  }
  stats_.records_received += out.size();
  cb(std::move(out));
}

void DistributedDiscovery::on_flood(NodeId origin, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  switch (*kind) {
    case MsgKind::kQuery: {
      auto query = decode_query(r);
      if (!query) return;
      // Our own flood is also delivered locally; match local services in
      // both cases, but self-replies short-circuit through the transport
      // loopback path.
      auto records = match_local(query->consumer, query->max_results);
      if (records.empty()) return;
      QueryReply reply;
      reply.query_id = query->query_id;
      reply.records = std::move(records);
      transport_.send(query->reply_to, query->reply_port, encode_query_reply(reply));
      break;
    }
    case MsgKind::kAdvertise: {
      if (origin == transport_.self()) return;
      auto records = decode_advertise(r);
      if (!records) return;
      for (auto& rec : *records) {
        cache_[rec.id] = std::move(rec);
      }
      break;
    }
    default:
      break;
  }
}

void DistributedDiscovery::on_unicast(NodeId /*src*/, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind || *kind != MsgKind::kQueryReply) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  auto reply = decode_query_reply(r);
  if (!reply) return;
  const auto it = pending_.find(reply->query_id);
  if (it == pending_.end()) return;  // late reply
  for (auto& rec : reply->records) {
    it->second.collected.emplace(rec.id, std::move(rec));
  }
  if (it->second.collected.size() >= it->second.max_results) finish_query(reply->query_id);
}

}  // namespace ndsm::discovery
