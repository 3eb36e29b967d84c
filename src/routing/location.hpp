#pragma once
// Location service (§3.5 "many middleware systems, especially those for
// mobile systems, require a notion of location"). Each node periodically
// floods a small position beacon; peers cache (position, timestamp). Used
// by spatial QoS matching (§3.4) and by MiLAN's network configuration.

#include <optional>
#include <unordered_map>

#include "routing/router.hpp"

namespace ndsm::routing {

class LocationService {
 public:
  struct Entry {
    Vec2 position;
    Time updated;
  };

  LocationService(Router& router, Time beacon_period = duration::seconds(10));
  ~LocationService();

  LocationService(const LocationService&) = delete;
  LocationService& operator=(const LocationService&) = delete;

  // Broadcast our position now (normally timer-driven).
  void beacon();

  // Last known position of `node`, if a beacon has been seen and is not
  // older than `max_age` (kTimeNever = any age).
  [[nodiscard]] std::optional<Vec2> lookup(NodeId node, Time max_age = kTimeNever) const;
  [[nodiscard]] std::size_t known_count() const { return cache_.size(); }

 private:
  void on_beacon(NodeId origin, const Bytes& payload);

  Router& router_;
  std::unordered_map<NodeId, Entry> cache_;
  net::PeriodicTimer timer_;
};

}  // namespace ndsm::routing
