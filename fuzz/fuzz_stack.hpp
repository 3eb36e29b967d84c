#pragma once
// net::Stack test double for fuzzing the middleware above the link layer
// without a World or sockets. Outbound frames are counted and discarded,
// except the last one, which is kept for inspection (the fuzzer plays the
// whole network); inbound frames are injected straight into the registered
// handler, which is exactly what a hostile datagram does on the UDP
// backend. Timers live on a one-shard sim::Simulator, the event queue of
// every other backend, whose clock only advance() moves, with a hard fire
// budget so no input can make a target spin. Tests use it as a Stack
// double too.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "net/stack.hpp"
#include "sim/simulator.hpp"

namespace ndsm::fuzz {

class FuzzStack final : public net::Stack {
 public:
  explicit FuzzStack(NodeId self = NodeId{1}) : self_(self) {}

  [[nodiscard]] NodeId self() const override { return self_; }
  [[nodiscard]] bool online() const override { return true; }
  bool set_link_up() override { return true; }
  void set_link_down() override {}

  [[nodiscard]] Vec2 self_position() const override { return Vec2{}; }
  [[nodiscard]] std::optional<Vec2> position_of(NodeId) const override { return Vec2{}; }
  [[nodiscard]] bool peer_online(NodeId) const override { return true; }

  Status send_frame(NodeId dst, net::Proto, Bytes payload) override {
    if (dst == refused_) return Status{ErrorCode::kUnreachable, "link refused"};
    frames_out_++;
    bytes_out_ += payload.size();
    last_dst_ = dst;
    last_frame_ = std::move(payload);
    return Status::ok();
  }
  Status broadcast_frame(net::Proto proto, Bytes payload) override {
    return send_frame(net::kBroadcast, proto, std::move(payload));
  }
  void set_frame_handler(net::Proto proto, FrameHandler handler) override {
    handlers_[proto] = std::move(handler);
  }
  void clear_frame_handler(net::Proto proto) override { handlers_.erase(proto); }

  [[nodiscard]] Time now() const override { return timers_.now(); }
  EventId schedule_after(Time delay, std::function<void()> fn) override {
    return timers_.schedule_after(std::max<Time>(delay, 0), std::move(fn));
  }
  void cancel(EventId id) override { timers_.cancel(id); }

  // Fixed-seed fork: fuzz inputs must be the only source of variation.
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override { return Rng{0x9e3779b9, salt | 1}; }
  [[nodiscard]] std::uint64_t incarnation_epoch() const override { return kEpoch; }

  // --- fuzz controls ---------------------------------------------------------
  // Deliver raw bytes as an inbound link frame, exactly as a hostile
  // datagram that passed the UDP wire-header check would arrive.
  void inject(net::Proto proto, NodeId src, NodeId dst, Bytes payload) {
    deliver(link_frame(proto, src, dst, std::move(payload)));
  }
  static net::LinkFrame link_frame(net::Proto proto, NodeId src, NodeId dst, Bytes payload) {
    net::LinkFrame frame;
    frame.src = src;
    frame.dst = dst;
    frame.medium = MediumId::invalid();
    frame.proto = proto;
    frame.payload_buf = std::make_shared<const Bytes>(std::move(payload));
    return frame;
  }
  // Hands an already built frame to its protocol's handler.
  void deliver(const net::LinkFrame& frame) {
    const auto it = handlers_.find(frame.proto);
    if (it != handlers_.end()) it->second(frame);
  }

  // Make every unicast to `dst` fail, as a link layer does for a peer it
  // knows is down.
  void refuse_frames_to(NodeId dst) { refused_ = dst; }

  // Fire the timers due by `until` in (deadline, creation) order, at most
  // `max_fired` of them: the budget bounds re-arming loops (retransmit
  // backoff chains). The clock then moves to `until` only if nothing is
  // still due by then; after a spent budget it stays at the last timer
  // that fired rather than jump past the unfired ones.
  void advance(Time until, int max_fired = 64) {
    for (; max_fired > 0 && timers_.next_event_time() <= until; --max_fired) timers_.step();
    if (timers_.next_event_time() > until) timers_.run_until(until);
  }

  [[nodiscard]] std::uint64_t frames_out() const { return frames_out_; }
  // The most recent outbound frame and its link destination (kBroadcast
  // for broadcasts).
  [[nodiscard]] const Bytes& last_frame() const { return last_frame_; }
  [[nodiscard]] NodeId last_dst() const { return last_dst_; }

  static constexpr std::uint64_t kEpoch = 7;

 private:
  NodeId self_;
  sim::Simulator timers_{sim::SimulatorConfig{}};
  std::map<net::Proto, FrameHandler> handlers_;
  std::uint64_t frames_out_ = 0;
  std::uint64_t bytes_out_ = 0;
  NodeId refused_ = NodeId::invalid();
  NodeId last_dst_ = NodeId::invalid();
  Bytes last_frame_;
};

}  // namespace ndsm::fuzz
