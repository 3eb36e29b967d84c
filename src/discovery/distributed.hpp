#pragma once
// Fully distributed discovery (§3.3 "completely distributed"): no
// directory node. Registrations stay local to the supplier; queries are
// flooded and every node answers from its own service table. Optional
// proactive advertisement floods fill peer caches, letting queries be
// answered locally when fresh cached matches exist.

#include <map>

#include "discovery/messages.hpp"
#include "discovery/service_discovery.hpp"
#include "routing/router.hpp"
#include "transport/reliable.hpp"

namespace ndsm::discovery {

struct DistributedConfig {
  // 0 disables proactive advertisement (purely reactive mode). Otherwise
  // queries are served from the advertisement cache when it has fresh
  // matches, skipping the flood entirely.
  Time advertise_period = 0;
  Time cache_entry_ttl = duration::seconds(30);
};

class DistributedDiscovery : public ServiceDiscovery {
 public:
  DistributedDiscovery(transport::ReliableTransport& transport, DistributedConfig config = {});
  ~DistributedDiscovery() override;

  ServiceId register_service(qos::SupplierQos qos, Time lease) override;
  void unregister_service(ServiceId id) override;
  void query(const qos::ConsumerQos& consumer, QueryCallback callback,
             std::uint32_t max_results, Time timeout) override;

  // Copies held from advertisements (stale ones are evicted on each
  // advertisement tick and each arrival).
  [[nodiscard]] std::size_t cache_size() const { return table_.copy_count(); }

 private:
  struct PendingQuery {
    QueryCallback callback;
    qos::ConsumerQos consumer;  // ranks the collected replies
    std::uint32_t max_results = 0;
    std::map<ServiceId, ServiceRecord> collected;
  };

  void on_flood(NodeId origin, const Bytes& frame);     // queries & advertisements
  void on_unicast(NodeId src, const Bytes& frame);      // query replies
  void advertise();
  void finish_query(PendingQuery query);

  transport::ReliableTransport& transport_;
  DistributedConfig config_;
  // Own services and advertised copies, aged by cache_entry_ttl.
  RecordTable table_;
  net::RequestTable<PendingQuery> queries_;  // flooded: any node answers
  // Answers from the cache, each delivered in the next event.
  net::RequestTable<std::function<void()>> answers_;
  net::PeriodicTimer advertiser_;
};

}  // namespace ndsm::discovery
