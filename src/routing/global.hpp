#pragma once
// Middleware-computed routing (the MiLAN approach, §4): the middleware has
// a view of the network and configures routes directly, rather than
// sitting above an existing routing protocol. The shared GlobalRoutingTable
// computes per-source shortest paths under a pluggable link metric:
//
//   * kHopCount    — classic shortest path (the "existing routing
//                    algorithm" baseline in E6)
//   * kEnergyAware — link cost = transmit energy / residual battery
//                    fraction, which steers traffic away from nearly-dead
//                    relays and raises network lifetime (§4: "increase the
//                    lifetime of a network").

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/world.hpp"
#include "routing/router.hpp"

namespace ndsm::routing {

enum class Metric { kHopCount, kEnergyAware };

// Sim-only: needs the omniscient network view (reached through
// Stack::world_ptr()), which a real backend cannot provide.
class GlobalRoutingTable {
 public:
  GlobalRoutingTable(net::World& world, Metric metric,
                     std::size_t reference_payload_bytes = 64,
                     Time refresh_interval = duration::seconds(10));

  // Next hop on the current best path from `from` toward `to`; invalid()
  // if unreachable.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to);
  [[nodiscard]] double path_cost(NodeId from, NodeId to);
  [[nodiscard]] bool reachable(NodeId from, NodeId to);

  // Drop all cached paths (call on topology change; battery drift is
  // handled by the refresh interval).
  void invalidate();

  [[nodiscard]] Metric metric() const { return metric_; }
  void set_metric(Metric metric) {
    metric_ = metric;
    invalidate();
  }

  [[nodiscard]] std::uint64_t recomputations() const { return recomputations_; }

 private:
  struct SourceRoutes {
    Time computed_at = -1;
    std::unordered_map<NodeId, NodeId> next_hop;  // dst -> first hop
    std::unordered_map<NodeId, double> cost;      // dst -> path cost
  };

  [[nodiscard]] double link_cost(NodeId a, NodeId b) const;
  SourceRoutes& routes_for(NodeId from);

  net::World& world_;
  Metric metric_;
  std::size_t reference_payload_;
  Time refresh_interval_;
  std::unordered_map<NodeId, SourceRoutes> cache_;
  std::uint64_t recomputations_ = 0;
  std::uint64_t invalidations_ = 0;
  obs::MetricGroup metrics_;
};

class GlobalRouter : public Router {
 public:
  GlobalRouter(net::Stack& stack, std::shared_ptr<GlobalRoutingTable> table);
  ~GlobalRouter() override;

  [[nodiscard]] GlobalRoutingTable& table() { return *table_; }

 private:
  // send() to a node the table cannot reach returns kUnreachable.
  bool has_path(NodeId dst) override { return table_->reachable(self_, dst); }
  NodeId next_hop_toward(NodeId dst) override { return table_->next_hop(self_, dst); }
  // Stale route (e.g. the hop just died): recompute and retry once.
  NodeId retry_hop(NodeId dst) override;

  std::shared_ptr<GlobalRoutingTable> table_;
};

}  // namespace ndsm::routing
