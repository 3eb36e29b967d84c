#pragma once
// Fully distributed discovery (§3.3 "completely distributed"): no
// directory node. Registrations stay local to the supplier; queries are
// flooded and every node answers from its own service table. Optional
// proactive advertisement floods fill peer caches, letting queries be
// answered locally when fresh cached matches exist.

#include <map>
#include <unordered_map>

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

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

 private:
  struct PendingQuery {
    QueryCallback callback;
    std::uint32_t max_results = 0;
    std::map<ServiceId, ServiceRecord> collected;
    EventId timer = EventId::invalid();
  };

  void on_flood(NodeId origin, const Bytes& frame);     // queries & advertisements
  void on_unicast(NodeId src, const Bytes& frame);      // query replies
  void advertise();
  void finish_query(std::uint64_t query_id);
  [[nodiscard]] std::vector<ServiceRecord> match_local(const qos::ConsumerQos& consumer,
                                                       std::uint32_t max_results) const;
  [[nodiscard]] std::vector<ServiceRecord> match_cache(const qos::ConsumerQos& consumer,
                                                       std::uint32_t max_results) const;

  transport::ReliableTransport& transport_;
  DistributedConfig config_;
  std::uint32_t next_service_ = 1;
  std::uint64_t next_query_ = 1;
  // Ordered: advertise() serializes local_ straight into flooded
  // advertisement packets, so iteration order is wire bytes. cache_
  // matches local_ for symmetry (its matches are re-sorted by score).
  std::map<ServiceId, ServiceRecord> local_;
  std::map<ServiceId, Time> local_lease_;  // for automatic renewal
  std::map<ServiceId, ServiceRecord> cache_;  // from advertisements
  std::unordered_map<std::uint64_t, PendingQuery> pending_;
  net::PeriodicTimer advertiser_;
};

}  // namespace ndsm::discovery
