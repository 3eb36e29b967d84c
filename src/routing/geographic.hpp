#pragma once
// Greedy geographic routing (§3.5: locating and routing; the paper's
// position-aware routing option enabled by GPS/location devices, §2).
// Each node learns its one-hop neighbours' positions from periodic hello
// beacons and forwards packets to the neighbour strictly closest to the
// destination's position. Destination positions come from a pluggable
// resolver (a location service, or ground truth for infrastructure nodes).
//
// Greedy-only: packets stuck in a local minimum (no neighbour closer than
// self) are dropped and counted — the classic limitation face routing
// would fix; documented as future work in DESIGN.md.

#include <functional>
#include <optional>
#include <vector>

#include "routing/router.hpp"

namespace ndsm::routing {

class GeoRouter : public Router {
 public:
  using PositionResolver = std::function<std::optional<Vec2>(NodeId)>;

  explicit GeoRouter(net::Stack& stack, Time hello_period = duration::seconds(2));
  ~GeoRouter() override;

  // How to find a destination's position. Default: the Stack's position
  // oracle (the World's ground truth in the sim — the GPS assumption);
  // swap in a LocationService lookup for a fully distributed deployment.
  void set_position_resolver(PositionResolver resolver) { resolve_ = std::move(resolver); }

  // Broadcast a hello beacon now (normally timer-driven).
  void hello();

  [[nodiscard]] std::size_t known_neighbors() const { return neighbors_.size(); }
  [[nodiscard]] std::uint64_t local_minimum_drops() const { return local_minimum_drops_; }

 private:
  struct Neighbor {
    NodeId id;
    Vec2 position;
    Time heard;
  };

  // A neighbour's hello beacon: its position.
  void on_control(NodeId from, std::span<const std::uint8_t> body) override;
  NodeId next_hop_toward(NodeId dst) override;
  void note_neighbor(NodeId id, Vec2 position);
  // Whether `id` is a neighbour heard within the neighbour TTL.
  [[nodiscard]] bool is_live_neighbor(NodeId id) const;
  [[nodiscard]] NodeId best_hop_toward(Vec2 dst_pos) const;

  Time hello_period_;
  Time neighbor_ttl_;
  PositionResolver resolve_;
  // Sorted by id: best_hop_toward() scans this table and breaks
  // equal-distance ties by first-seen order, so the tie goes to the
  // smallest id, a pure function of the neighbor set rather than of
  // hash-bucket layout. A flat vector keeps the per-relay scan in one
  // cache-friendly array; entries are never erased (stale ones are
  // skipped by their hello time).
  std::vector<Neighbor> neighbors_;
  std::uint64_t local_minimum_drops_ = 0;
  net::PeriodicTimer hello_timer_;
};

}  // namespace ndsm::routing
