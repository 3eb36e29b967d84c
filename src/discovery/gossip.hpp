#pragma once
// Epidemic (gossip) service discovery — the third point in §3.3's design
// space between "completely centralized" and "completely distributed":
// no directory and no query floods. Every 2 s a node pushes
// its known record set (own services + cache) to `fanout` random peers;
// knowledge spreads in O(log N) rounds with per-node traffic independent
// of the query rate. Queries are answered instantly from the local cache,
// trading staleness for zero query-time network cost.
//
// Peers are learned two ways: a seed list at construction, and the source
// of any gossip we receive (push gossip is self-bootstrapping once seeded).

#include <vector>

#include "discovery/messages.hpp"
#include "discovery/service_discovery.hpp"
#include "transport/reliable.hpp"

namespace ndsm::discovery {

struct GossipConfig {
  std::size_t fanout = 2;                      // peers contacted per round
  Time cache_entry_ttl = duration::seconds(30);  // drop un-refreshed entries
};

class GossipDiscovery : public ServiceDiscovery {
 public:
  GossipDiscovery(transport::ReliableTransport& transport, std::vector<NodeId> seed_peers,
                  GossipConfig config = {});
  ~GossipDiscovery() override;

  ServiceId register_service(qos::SupplierQos qos, Time lease) override;
  void unregister_service(ServiceId id) override;
  // Answered synchronously-after-one-event from local knowledge; never
  // touches the network.
  void query(const qos::ConsumerQos& consumer, QueryCallback callback,
             std::uint32_t max_results, Time timeout) override;

  [[nodiscard]] std::size_t cache_size() const { return table_.copy_count(); }
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  // Push a gossip round now (normally timer-driven).
  void gossip();

 private:
  void on_gossip(NodeId src, const Bytes& frame);

  transport::ReliableTransport& transport_;
  GossipConfig config_;
  Rng rng_;
  // Own services and gossiped copies, aged by cache_entry_ttl. A round
  // sends its records in the table's order, so that order is wire bytes.
  RecordTable table_;
  std::vector<NodeId> peers_;
  std::uint64_t rounds_ = 0;
  // Answers, each delivered in the next event.
  net::RequestTable<std::function<void()>> answers_;
  net::PeriodicTimer timer_;
};

}  // namespace ndsm::discovery
