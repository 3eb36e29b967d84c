#pragma once
// net::WorldStack — the simulated implementation of the net::Stack seam: a
// thin per-node view over (World&, NodeId). Every call forwards to the
// exact World/Simulator call the pre-seam code made, in the same order, so
// twin-run digests are unchanged by the refactor. Holds no state of its
// own beyond the (world, id) pair; constructing one has no side effects.
// Layered code runs on the single timeline, so a WorldStack needs a
// one-shard World: on a sharded one its constructor aborts.

#include "common/audit.hpp"
#include "net/stack.hpp"
#include "net/world.hpp"

namespace ndsm::net {

class WorldStack final : public Stack {
 public:
  WorldStack(World& world, NodeId self) : world_(world), self_(self) {
    NDSM_INVARIANT(!world.sharded(), "a WorldStack on a sharded World (layered code is one-shard)");
  }

  [[nodiscard]] NodeId self() const override { return self_; }
  [[nodiscard]] bool online() const override { return world_.alive(self_); }
  bool set_link_up() override {
    world_.revive(self_);
    return world_.alive(self_);  // battery exhausted: cannot reboot
  }
  void set_link_down() override { world_.kill(self_); }

  [[nodiscard]] Vec2 self_position() const override { return world_.position(self_); }
  [[nodiscard]] std::optional<Vec2> position_of(NodeId node) const override {
    return world_.position(node);  // ground truth (GPS assumption)
  }
  [[nodiscard]] bool peer_online(NodeId node) const override { return world_.alive(node); }

  Status send_frame(NodeId dst, Proto proto, Bytes payload) override {
    return world_.link_send(self_, dst, proto, std::move(payload));
  }
  Status broadcast_frame(Proto proto, Bytes payload) override {
    return world_.link_broadcast(self_, proto, std::move(payload));
  }
  void set_frame_handler(Proto proto, FrameHandler handler) override {
    world_.set_handler(self_, proto, std::move(handler));
  }
  void clear_frame_handler(Proto proto) override { world_.clear_handler(self_, proto); }

  [[nodiscard]] Time now() const override { return world_.sim().now(); }
  EventId schedule_after(Time delay, std::function<void()> fn) override {
    return world_.sim().schedule_after(delay, std::move(fn));
  }
  void cancel(EventId id) override { world_.sim().cancel(id); }

  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override {
    return world_.sim().rng().fork(salt);
  }
  // Pure function of the executed-event sequence: strictly greater after
  // any crash/restart (the restart runs in a later event), and identical
  // across twin runs.
  [[nodiscard]] std::uint64_t incarnation_epoch() const override {
    return world_.sim().executed_events();
  }

  [[nodiscard]] World* world_ptr() override { return &world_; }

 private:
  World& world_;
  NodeId self_;
};

}  // namespace ndsm::net
