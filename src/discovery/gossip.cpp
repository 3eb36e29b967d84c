#include "discovery/gossip.hpp"

#include <algorithm>

namespace ndsm::discovery {

namespace {

constexpr Time kGossipPeriod = duration::seconds(2);

}  // namespace

GossipDiscovery::GossipDiscovery(transport::ReliableTransport& transport,
                                 std::vector<NodeId> seed_peers, GossipConfig config)
    : transport_(transport),
      config_(config),
      rng_(transport.router().stack().fork_rng(transport.self().value() ^ 0x90551b)),
      peers_(std::move(seed_peers)),
      timer_(transport.router().stack(), kGossipPeriod, [this] { gossip(); }) {
  peers_.erase(std::remove(peers_.begin(), peers_.end(), transport_.self()), peers_.end());
  register_stats_metrics("gossip", static_cast<std::int64_t>(transport.self().value()));
  metrics_.counter("discovery.gossip.rounds", &rounds_);
  metrics_.gauge("discovery.gossip.cache_size",
                 [this] { return static_cast<double>(cache_.size()); });
  metrics_.gauge("discovery.gossip.peers",
                 [this] { return static_cast<double>(peers_.size()); });
  transport_.set_receiver(transport::ports::kGossip,
                          [this](NodeId src, const Bytes& b) { on_gossip(src, b); });
  timer_.start(duration::millis(rng_.uniform_int(1, 1000)));
}

GossipDiscovery::~GossipDiscovery() { transport_.clear_receiver(transport::ports::kGossip); }

ServiceId GossipDiscovery::register_service(qos::SupplierQos qos, Time lease) {
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
  return id;
}

void GossipDiscovery::unregister_service(ServiceId id) {
  local_lease_.erase(id);
  if (local_.erase(id) > 0) stats_.unregistrations++;
}

std::vector<ServiceRecord> GossipDiscovery::known_records() {
  const Time now = transport_.router().stack().now();
  std::vector<ServiceRecord> out;
  // Own services: renew leases and stamp freshness.
  for (auto& [id, rec] : local_) {
    const Time lease = local_lease_.at(id);
    rec.registered = now;
    rec.expires = lease == kTimeNever ? kTimeNever : now + lease;
    out.push_back(rec);
  }
  // Cached copies: forward only fresh ones, and evict the stale.
  for (auto it = cache_.begin(); it != cache_.end();) {
    const ServiceRecord& rec = it->second;
    if (rec.expired(now) || now - rec.registered > config_.cache_entry_ttl) {
      it = cache_.erase(it);
    } else {
      out.push_back(rec);
      ++it;
    }
  }
  return out;
}

void GossipDiscovery::gossip() {
  if (!transport_.router().stack().online()) {
    timer_.stop();
    return;
  }
  rounds_++;
  const auto records = known_records();
  // An empty advertisement still teaches the receiver a live peer — it is
  // the heartbeat that bootstraps nodes with no inbound seeds.
  if (peers_.empty()) return;
  const Bytes payload = encode_advertise(records);
  // `fanout` distinct random peers (or all peers if fewer).
  std::vector<NodeId> pool = peers_;
  for (std::size_t k = 0; k < config_.fanout && !pool.empty(); ++k) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    transport_.send(pool[pick], transport::ports::kGossip, payload);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

void GossipDiscovery::on_gossip(NodeId src, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind || *kind != MsgKind::kAdvertise) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  auto records = decode_advertise(r);
  if (!records) return;
  // The sender is a live peer worth gossiping back to.
  if (src != transport_.self() &&
      std::find(peers_.begin(), peers_.end(), src) == peers_.end()) {
    peers_.push_back(src);
  }
  const Time now = transport_.router().stack().now();
  for (auto& rec : *records) {
    if (rec.provider == transport_.self()) continue;  // our own, authoritative copy
    if (rec.expired(now)) continue;
    const auto it = cache_.find(rec.id);
    // Keep the freshest copy.
    if (it == cache_.end() || rec.registered > it->second.registered) {
      cache_[rec.id] = std::move(rec);
    }
  }
}

std::vector<ServiceRecord> GossipDiscovery::match_known(const qos::ConsumerQos& consumer,
                                                        std::uint32_t max_results) {
  const Time now = transport_.router().stack().now();
  std::vector<const ServiceRecord*> known;
  for (const auto& [id, rec] : local_) {
    if (!rec.expired(now)) known.push_back(&rec);
  }
  for (const auto& [id, rec] : cache_) {
    if (!rec.expired(now) && now - rec.registered <= config_.cache_entry_ttl) {
      known.push_back(&rec);
    }
  }
  return best_matches(consumer, known, max_results);
}

void GossipDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                            std::uint32_t max_results, Time /*timeout*/) {
  stats_.queries_issued++;
  auto results = match_known(consumer, max_results);
  if (results.empty()) {
    stats_.queries_empty++;
  } else {
    stats_.queries_answered++;
  }
  stats_.records_received += results.size();
  // Asynchronous delivery, like every other discovery mode.
  transport_.router().stack().schedule_after(
      0, [cb = std::move(callback), results = std::move(results)]() mutable {
        cb(std::move(results));
      });
}

}  // namespace ndsm::discovery
