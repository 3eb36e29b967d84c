#pragma once
// DSDV-style distributed distance-vector routing: every node periodically
// broadcasts its route table to one-hop neighbours; routes expire if not
// refreshed. Destination sequence numbers (Perkins & Bhagwat) prevent
// count-to-infinity: only advertisements carrying a newer sequence number
// for a destination can refresh a route, so routes to dead nodes age out
// instead of ping-ponging upward.

#include <map>

#include "routing/router.hpp"

namespace ndsm::routing {

class DistanceVectorRouter : public Router {
 public:
  static constexpr int kInfinity = 32;

  explicit DistanceVectorRouter(net::Stack& stack,
                                Time update_period = duration::seconds(5));
  ~DistanceVectorRouter() override;

  // Immediately broadcast the route table (normally driven by the timer).
  void advertise();

  [[nodiscard]] int route_metric(NodeId dst) const;  // kInfinity if unknown
  [[nodiscard]] NodeId next_hop(NodeId dst) const;   // invalid() if unknown

 private:
  struct Route {
    NodeId next_hop;
    int metric = kInfinity;
    std::uint32_t seq = 0;  // destination sequence number (freshness)
    Time refreshed = 0;
  };

  // A neighbour's route-table advertisement.
  void on_control(NodeId from, std::span<const std::uint8_t> body) override;
  NodeId next_hop_toward(NodeId dst) override { return next_hop(dst); }
  void expire_routes();
  [[nodiscard]] Bytes encode_table() const;

  Time update_period_;
  Time route_ttl_;
  std::uint32_t own_seq_ = 0;  // incremented on every advertisement
  // Ordered: encode_table() serializes the table straight into broadcast
  // advertisements, so iteration order is packet bytes. An unordered map
  // here made the wire format depend on hash-bucket layout.
  std::map<NodeId, Route> table_;
  net::PeriodicTimer timer_;
};

}  // namespace ndsm::routing
