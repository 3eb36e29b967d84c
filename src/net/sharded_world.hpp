#pragma once
// net::ShardedWorld — a forwarding shim over a sharded net::World. World
// (net/world.hpp) is the one simulated link layer at any shard count;
// this header stays only because perfbench's scale-sim workload, which
// changes only together with the benchmark, builds a ShardedWorld. It
// offers exactly the calls that workload makes and holds no link-layer
// logic: frames arrive as LinkFrames on Proto::kApp, and the totals are
// the World's stats. The next benchmark change ports scale-sim to World
// and deletes this header.

#include <functional>
#include <utility>

#include "net/world.hpp"

namespace ndsm::net {

using ShardFrame = LinkFrame;

class ShardedWorld {
 public:
  using Totals = WorldStats;

  explicit ShardedWorld(WorldConfig config) : world_(config) {}

  MediumId add_medium(LinkSpec spec) { return world_.add_medium(std::move(spec)); }
  NodeId add_node(Vec2 position) { return world_.add_node(position); }
  void attach(NodeId node, MediumId medium) { world_.attach(node, medium); }
  void set_handler(NodeId node, World::LinkHandler handler) {
    world_.set_handler(node, Proto::kApp, std::move(handler));
  }
  void schedule(NodeId node, Time at, std::function<void()> fn) {
    world_.schedule(node, at, std::move(fn));
  }
  Status broadcast(NodeId src, Bytes payload) {
    return world_.link_broadcast(src, Proto::kApp, std::move(payload));
  }
  void run_until(Time deadline) { world_.run_until(deadline); }
  [[nodiscard]] sim::Simulator& engine() { return world_.sim(); }
  [[nodiscard]] Totals totals() const { return world_.stats(); }
  [[nodiscard]] std::uint64_t digest() const { return world_.digest(); }

 private:
  World world_;
};

}  // namespace ndsm::net
