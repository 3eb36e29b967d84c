#include "discovery/distributed.hpp"

namespace ndsm::discovery {

DistributedDiscovery::DistributedDiscovery(transport::ReliableTransport& transport,
                                           DistributedConfig config)
    : transport_(transport),
      config_(config),
      table_(transport.self(), config.cache_entry_ttl),
      queries_(transport.router().stack(),
               [this](std::uint64_t, PendingQuery query) { finish_query(std::move(query)); }),
      answers_(transport.router().stack(),
               [](std::uint64_t, std::function<void()> answer) { answer(); }),
      advertiser_(transport.router().stack(),
                  config.advertise_period > 0 ? config.advertise_period
                                              : duration::seconds(1),
                  [this] { advertise(); }) {
  register_stats_metrics("distributed", static_cast<std::int64_t>(transport.self().value()));
  metrics_.gauge("discovery.distributed.cache_size",
                 [this] { return static_cast<double>(table_.copy_count()); });
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
}

ServiceId DistributedDiscovery::register_service(qos::SupplierQos qos, Time lease) {
  stats_.registrations++;
  // In reactive mode registration is free; in proactive mode the next
  // advertisement round announces it.
  return table_.add_own(std::move(qos), lease, transport_.router().stack().now());
}

void DistributedDiscovery::unregister_service(ServiceId id) {
  if (table_.remove_own(id)) stats_.unregistrations++;
}

void DistributedDiscovery::advertise() {
  auto& stack = transport_.router().stack();
  if (!stack.online()) {
    advertiser_.stop();
    return;
  }
  const Time now = stack.now();
  table_.evict(now);
  if (table_.own_count() == 0) return;
  // Re-dated so that peers age their copies from the latest advertisement.
  table_.redate_own(now);
  transport_.router().flood(routing::Proto::kDiscovery,
                            encode_advertise(table_.records(/*own_only=*/true)));
}

void DistributedDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                                 std::uint32_t max_results, Time timeout) {
  auto& stack = transport_.router().stack();
  stats_.queries_issued++;

  if (config_.advertise_period > 0) {
    auto found = table_.match(consumer, max_results, stack.now());
    if (!found.empty()) {
      count_finished_query(found);
      // Delivered asynchronously (callers expect async).
      answers_.open(transport_.self(),
                    [cb = std::move(callback), found = std::move(found)]() mutable {
                      cb(std::move(found));
                    },
                    0);
      return;
    }
  }

  QueryMessage msg;
  msg.query_id =
      queries_.open(kAnyPeer, {std::move(callback), consumer, max_results, {}}, timeout);
  msg.reply_to = transport_.self();
  msg.reply_port = transport::ports::kDiscoveryReplyDist;
  msg.consumer = consumer;
  msg.max_results = max_results;
  transport_.router().flood(routing::Proto::kDiscovery, encode_query(msg));
}

void DistributedDiscovery::finish_query(PendingQuery query) {
  std::vector<const ServiceRecord*> replies;
  for (const auto& [id, rec] : query.collected) replies.push_back(&rec);
  auto found = best_matches(query.consumer, replies, query.max_results);
  count_finished_query(found);
  query.callback(std::move(found));
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
      // Our own flood is also delivered locally; match own services in
      // both cases, but self-replies short-circuit through the transport
      // loopback path. The answer renews the leases without re-dating.
      auto records = table_.match(query->consumer, query->max_results,
                                  transport_.router().stack().now(), /*own_only=*/true);
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
      const Time now = transport_.router().stack().now();
      for (auto& rec : *records) table_.keep(std::move(rec), now);
      table_.evict(now);
      break;
    }
    default:
      break;
  }
}

void DistributedDiscovery::on_unicast(NodeId src, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind || *kind != MsgKind::kQueryReply) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  auto reply = decode_query_reply(r);
  if (!reply) return;
  PendingQuery* query = queries_.find(reply->query_id, src);
  if (query == nullptr) return;  // late reply
  for (auto& rec : reply->records) query->collected.emplace(rec.id, std::move(rec));
  if (query->collected.size() >= query->max_results) {
    finish_query(*queries_.take(reply->query_id, src));
  }
}

}  // namespace ndsm::discovery
