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
      table_(transport.self(), config.cache_entry_ttl),
      peers_(std::move(seed_peers)),
      answers_(transport.router().stack(),
               [](std::uint64_t, std::function<void()> answer) { answer(); }),
      timer_(transport.router().stack(), kGossipPeriod, [this] { gossip(); }) {
  peers_.erase(std::remove(peers_.begin(), peers_.end(), transport_.self()), peers_.end());
  register_stats_metrics("gossip", static_cast<std::int64_t>(transport.self().value()));
  metrics_.counter("discovery.gossip.rounds", &rounds_);
  metrics_.gauge("discovery.gossip.cache_size",
                 [this] { return static_cast<double>(table_.copy_count()); });
  metrics_.gauge("discovery.gossip.peers",
                 [this] { return static_cast<double>(peers_.size()); });
  transport_.set_receiver(transport::ports::kGossip,
                          [this](NodeId src, const Bytes& b) { on_gossip(src, b); });
  timer_.start(duration::millis(rng_.uniform_int(1, 1000)));
}

GossipDiscovery::~GossipDiscovery() { transport_.clear_receiver(transport::ports::kGossip); }

ServiceId GossipDiscovery::register_service(qos::SupplierQos qos, Time lease) {
  stats_.registrations++;
  return table_.add_own(std::move(qos), lease, transport_.router().stack().now());
}

void GossipDiscovery::unregister_service(ServiceId id) {
  if (table_.remove_own(id)) stats_.unregistrations++;
}

void GossipDiscovery::gossip() {
  if (!transport_.router().stack().online()) {
    timer_.stop();
    return;
  }
  rounds_++;
  // Own records go out re-dated, so that peers age their copies from the
  // latest round, and only fresh copies are forwarded.
  const Time now = transport_.router().stack().now();
  table_.redate_own(now);
  table_.evict(now);
  if (peers_.empty()) return;
  // An empty advertisement still teaches the receiver a live peer — it is
  // the heartbeat that bootstraps nodes with no inbound seeds.
  const Bytes payload = encode_advertise(table_.records());
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
    table_.keep(std::move(rec), now);
  }
}

void GossipDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                            std::uint32_t max_results, Time /*timeout*/) {
  stats_.queries_issued++;
  auto results = table_.match(consumer, max_results, transport_.router().stack().now());
  count_finished_query(results);
  // Asynchronous delivery, like every other discovery mode.
  answers_.open(transport_.self(),
                [cb = std::move(callback), results = std::move(results)]() mutable {
                  cb(std::move(results));
                },
                0);
}

}  // namespace ndsm::discovery
