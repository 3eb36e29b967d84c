#pragma once
// Centralized discovery client (§3.3): registers with a primary directory
// (which replicates to mirrors) and load-balances queries across the
// mirror set. Leases are renewed automatically at half-life.

#include <unordered_map>
#include <vector>

#include "discovery/messages.hpp"
#include "discovery/service_discovery.hpp"
#include "transport/reliable.hpp"

namespace ndsm::discovery {

enum class MirrorPolicy {
  kPrimaryOnly,  // all queries to the primary
  kRoundRobin,   // rotate across mirrors
  kNearest,      // geographically nearest mirror (needs world positions)
};

class CentralizedDiscovery : public ServiceDiscovery {
 public:
  // `directories`: primary first, then mirrors.
  CentralizedDiscovery(transport::ReliableTransport& transport,
                       std::vector<NodeId> directories,
                       MirrorPolicy policy = MirrorPolicy::kPrimaryOnly);
  ~CentralizedDiscovery() override;

  ServiceId register_service(qos::SupplierQos qos, Time lease) override;
  void unregister_service(ServiceId id) override;
  void query(const qos::ConsumerQos& consumer, QueryCallback callback,
             std::uint32_t max_results, Time timeout) override;

 private:
  struct PendingQuery {
    QueryCallback callback;
    // Query span context, bridging the async gap to the reply/timeout.
    obs::TraceContext trace;
  };

  void on_message(NodeId src, const Bytes& frame);
  void on_query_timeout(std::uint64_t query_id, PendingQuery query);
  void send_register(ServiceId id);
  [[nodiscard]] NodeId pick_directory();

  transport::ReliableTransport& transport_;
  std::vector<NodeId> directories_;
  MirrorPolicy policy_;
  std::size_t rr_next_ = 0;
  RecordTable table_;  // own records only; the directory holds the copies
  std::unordered_map<ServiceId, EventId> renewals_;
  net::RequestTable<PendingQuery> queries_;  // answered by the directory asked
};

}  // namespace ndsm::discovery
