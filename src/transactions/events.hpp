#pragma once
// Event-based middleware (§3.1/§3.6; the paper cites event services [66]
// and §3.10 asks that middleware "react to events from all system
// components"). Brokerless: consumers attach directly to a producer node;
// the producer pushes typed events to every attached listener. Also hosts
// the node-local event bus used by middleware components (supplier death,
// battery-low, mode switches, ...).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "serialize/value.hpp"
#include "transport/reliable.hpp"

namespace ndsm::transactions {

struct Event {
  std::string type;          // e.g. "battery.low", "sample.temperature"
  serialize::Value payload;
  NodeId source;
  Time emitted = 0;
};

class EventChannel {
 public:
  using EventHandler = std::function<void(const Event&)>;

  explicit EventChannel(transport::ReliableTransport& transport);
  ~EventChannel();

  EventChannel(const EventChannel&) = delete;
  EventChannel& operator=(const EventChannel&) = delete;

  // --- local bus -----------------------------------------------------------
  // Subscribe to events emitted *on this node* (type == "" matches all).
  SubscriptionId subscribe_local(const std::string& type, EventHandler handler);

  // Emit an event: local subscribers see it synchronously, attached remote
  // listeners receive a pushed copy.
  void emit(const std::string& type, serialize::Value payload);

  // --- remote attachment -----------------------------------------------------
  // Attach to `producer`'s events of `type` ("" = all). Events arrive via
  // the same handler mechanism as local subscriptions.
  SubscriptionId attach(NodeId producer, const std::string& type, EventHandler handler);
  void detach(SubscriptionId id);

  [[nodiscard]] std::uint64_t events_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t events_received() const { return received_; }
  [[nodiscard]] std::size_t remote_listener_count() const { return listeners_.size(); }

 private:
  enum class Kind : std::uint8_t { kAttach = 1, kDetach = 2, kEvent = 3 };
  struct LocalSub {
    std::string type;
    EventHandler handler;
    bool remote_origin;  // attach() subscription (fed by pushed events)
    NodeId producer;
  };
  struct RemoteListener {
    NodeId consumer;
    std::string type;
    std::uint64_t token;
  };

  void on_message(NodeId src, const Bytes& frame);

  transport::ReliableTransport& transport_;
  std::uint64_t next_token_ = 1;
  std::map<std::uint64_t, LocalSub> subs_;
  std::vector<RemoteListener> listeners_;
  std::uint64_t emitted_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace ndsm::transactions
