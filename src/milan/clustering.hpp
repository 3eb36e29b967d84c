#pragma once
// Cluster-role assignment (§4): "MiLAN must then configure the network
// (e.g., determine which components should send data, which nodes should
// be routers in multi-hop networks, and which nodes should play special
// roles in the network, such as Bluetooth masters)."
//
// A deterministic LEACH-style scheme (Heinzelman et al. — the authors' own
// substrate work): each round the k members with the highest residual
// battery fraction become cluster heads; every other member attaches to
// its nearest head. Members send samples one hop to their head; the head
// aggregates a round's samples into one fixed-size packet and forwards it
// to the sink. Head rotation spreads the expensive aggregate-and-forward
// role across the field.

#include <functional>
#include <map>
#include <vector>

#include "net/world.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

namespace ndsm::milan {

// Aggregation window: heads flush what their members sent once per frame.
inline constexpr Time kClusterFrameLength = duration::seconds(2);

struct ClusterConfig {
  std::size_t cluster_count = 3;             // heads per round
  Time round_length = duration::seconds(20); // head rotation period
  std::size_t sample_bytes = 24;             // member -> head payload
};

struct ClusterStats {
  std::uint64_t rounds = 0;
  std::uint64_t samples_in = 0;        // member samples reaching heads
  std::uint64_t aggregates_out = 0;    // aggregate packets handed to routing
  std::uint64_t aggregates_forwarded = 0;
  std::uint64_t head_terms = 0;        // head-role assignments handed out
};

class ClusterManager {
 public:
  using RouterOf = std::function<routing::Router*(NodeId)>;

  ClusterManager(net::World& world, NodeId sink, std::vector<NodeId> members,
                 RouterOf router_of, ClusterConfig config = {});
  ~ClusterManager();

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  void start();
  void stop();

  // A member produced a sample: ships it to its cluster head (or, if this
  // member currently *is* a head, straight into the head's buffer).
  void submit_sample(NodeId member);

  [[nodiscard]] const std::vector<NodeId>& heads() const { return heads_; }
  [[nodiscard]] NodeId head_of(NodeId member) const;
  [[nodiscard]] bool is_head(NodeId node) const;
  [[nodiscard]] const ClusterStats& stats() const { return stats_; }

  // Run the election immediately (normally round-timer driven).
  void elect();

 private:
  void flush_heads();  // end of frame: heads aggregate & forward

  net::World& world_;
  NodeId sink_;
  std::vector<NodeId> members_;
  RouterOf router_of_;
  ClusterConfig config_;
  bool running_ = false;

  net::World::DeathHandler chained_death_;
  std::vector<NodeId> heads_;
  std::map<NodeId, NodeId> assignment_;     // member -> head
  std::map<NodeId, std::uint32_t> buffers_; // head -> samples this frame
  ClusterStats stats_;
  sim::PeriodicTimer round_timer_;
  sim::PeriodicTimer frame_timer_;
};

}  // namespace ndsm::milan
