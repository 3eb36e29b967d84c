#pragma once
// Multi-hop routing (§3.5). The paper argues locating and routing belong
// *inside* the middleware ("the middleware incorporates this
// functionality", §4), so routers are first-class middleware objects: one
// Router instance per node, all built on the net::Stack link-layer seam
// (simulated World or real sockets — §3.2 network independence).
//
// Four strategies are provided:
//   * FloodingRouter       — controlled flooding with duplicate suppression
//   * DistanceVectorRouter — distributed DSDV-style hop-count routing
//   * GlobalRouter         — middleware-computed routes (MiLAN's approach:
//                            the middleware has a network view and writes
//                            routes), with hop-count or energy-aware metric
//   * GeoRouter            — greedy geographic forwarding
//
// Relaying is shared: every router hands a received kData frame to
// on_data(), which delivers or relays it, and a kFlood frame it has not
// seen before to relay_flood(). The relay parses the frame in place and
// encodes the outbound frame (TTL - 1, hops + 1) straight from that view
// into one buffer, so a hop never copies the body out first. Each router
// keeps only its next-hop choice (next_hop_toward), its duplicate
// suppression and its control messages.

#include <functional>
#include <map>
#include <memory>
#include <span>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace ndsm::routing {

using net::Proto;

// Wire header carried in every routing frame.
enum class RoutingKind : std::uint8_t { kData = 1, kFlood = 2, kDvUpdate = 3 };

struct RoutingHeader {
  RoutingKind kind = RoutingKind::kData;
  NodeId origin;
  NodeId dst;             // net::kBroadcast for floods without a target
  std::uint32_t seq = 0;  // per-origin sequence for duplicate suppression
  std::uint8_t ttl = 0;
  Proto upper = Proto::kApp;  // which upper-layer protocol the payload is for
  // Causal context stamped at originate time (versioned optional trailer
  // on the wire; hops incremented at each forward). Encoded even when
  // invalid so frame size never depends on tracing state.
  obs::TraceContext trace;
};

[[nodiscard]] Bytes encode_routing(const RoutingHeader& header, const Bytes& payload);
[[nodiscard]] bool decode_routing(const Bytes& frame, RoutingHeader& header, Bytes& payload);

// A routing frame parsed without copying its body. `body` aliases the
// received buffer and is valid only while it lives.
struct RoutingView {
  RoutingHeader header;
  std::span<const std::uint8_t> body;
};

// Accepts exactly the frames decode_routing() accepts.
[[nodiscard]] bool view_routing(const Bytes& frame, RoutingView& view);

struct RouterStats {
  std::uint64_t data_sent = 0;        // originated data packets
  std::uint64_t data_forwarded = 0;   // relayed for others
  std::uint64_t data_delivered = 0;   // delivered to the local upper layer
  std::uint64_t control_packets = 0;  // routing-protocol packets sent
  std::uint64_t control_bytes = 0;
  std::uint64_t drops = 0;            // undeliverable / TTL expired
};

class Router {
 public:
  // origin = the node that sent the payload end-to-end.
  using DeliveryHandler = std::function<void(NodeId origin, const Bytes& payload)>;

  explicit Router(net::Stack& stack)
      : stack_(stack), self_(stack.self()), hops_hist_(register_metrics()) {}
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Send `payload` to `dst`, possibly over multiple hops.
  virtual Status send(NodeId dst, Proto upper, Bytes payload) = 0;

  // Network-wide flood (delivered to the upper layer on every reachable
  // node, including nodes with no route state).
  virtual Status flood(Proto upper, Bytes payload, int ttl = kDefaultTtl) = 0;

  // Register the upper-layer protocol handler (transport, discovery,
  // location, ...). One handler per protocol.
  void set_delivery_handler(Proto upper, DeliveryHandler handler) {
    handlers_[upper] = std::move(handler);
  }
  void clear_delivery_handler(Proto upper) { handlers_.erase(upper); }

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  // The network backend this router runs on (sim WorldStack or UdpStack).
  [[nodiscard]] net::Stack& stack() { return stack_; }

  static constexpr int kDefaultTtl = 32;

 protected:
  void deliver_local(NodeId origin, Proto upper, const Bytes& payload) {
    stats_.data_delivered++;
    const auto it = handlers_.find(upper);
    if (it != handlers_.end()) it->second(origin, payload);
  }

  // Delivery of a received frame's body with the frame's causal context
  // active, so upper layers that send from their handler continue the
  // trace. The body is copied out only when a handler is bound.
  void deliver_local(const RoutingView& v);

  // Stamp the caller's active context onto a header about to be
  // originated (hop count starts at zero here).
  static void stamp_trace(RoutingHeader& h) {
    h.trace = obs::active_trace();
    h.trace.hops = 0;
  }

  // --- data forwarding ------------------------------------------------------
  // The router's next hop toward `dst`, or invalid() to drop the frame
  // (counted in drops). Routers that unicast data override this.
  virtual NodeId next_hop_toward(NodeId dst);
  // Called once after the link layer refused the next_hop_toward() hop: a
  // different hop to retry on, or invalid() (the default) to drop.
  virtual NodeId retry_hop(NodeId dst);

  // Sends a kData frame one hop toward `dst` through next_hop_toward()
  // and, if the link refuses it, one retry_hop(). `make_frame` builds the
  // frame for each attempt.
  template <class MakeFrame>
  void send_toward(NodeId dst, MakeFrame&& make_frame) {
    const NodeId hop = next_hop_toward(dst);
    if (!hop.valid()) {
      stats_.drops++;
      return;
    }
    if (stack_.send_frame(hop, Proto::kRouting, make_frame()).is_ok()) return;
    const NodeId retry = retry_hop(dst);
    if (!retry.valid() || retry == hop ||
        !stack_.send_frame(retry, Proto::kRouting, make_frame()).is_ok()) {
      stats_.drops++;
    }
  }

  // --- the shared relay path -----------------------------------------------
  // A received kData frame: delivered when addressed here (recording its
  // hop count), otherwise relayed one hop on via send_toward().
  void on_data(RoutingView& v);
  // Re-broadcasts a kFlood frame the caller has not seen before (and has
  // delivered locally where it wants to).
  void relay_flood(RoutingView& v);

  // Subclasses call this where the hop count of a delivered data packet is
  // known (typically kDefaultTtl minus the remaining TTL).
  void record_delivery_hops(int hops) { hops_hist_.observe(static_cast<double>(hops)); }

  net::Stack& stack_;
  NodeId self_;
  std::map<Proto, DeliveryHandler> handlers_;
  RouterStats stats_;
  obs::MetricGroup metrics_;
  obs::Histogram& hops_hist_;

 private:
  // Both relays start here: a frame whose TTL is spent is dropped and
  // counted (false); otherwise TTL - 1, hops + 1 (capped at 255), the
  // forward is counted and traced, and the caller passes it on.
  bool begin_relay(RoutingView& v, const char* trace_name);
  // Leaves a causal "forward" instant so per-hop relays show up in the
  // trace timeline, filled into the tracer's ring slot in place.
  void record_forward(const RoutingHeader& h, const char* name) const;

  obs::Histogram& register_metrics() {
    metrics_.set_labels("routing.router", static_cast<std::int64_t>(self_.value()));
    metrics_.counter("routing.router.data_sent", &stats_.data_sent);
    metrics_.counter("routing.router.data_forwarded", &stats_.data_forwarded);
    metrics_.counter("routing.router.data_delivered", &stats_.data_delivered);
    metrics_.counter("routing.router.control_packets", &stats_.control_packets);
    metrics_.counter("routing.router.control_bytes", &stats_.control_bytes);
    metrics_.counter("routing.router.drops", &stats_.drops);
    return metrics_.histogram("routing.router.hops",
                              {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32});
  }
};

}  // namespace ndsm::routing
