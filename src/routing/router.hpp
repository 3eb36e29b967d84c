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
// Everything but the next-hop choice is shared, in Router: origination,
// flooding, flood duplicate suppression and the relay. A node numbers its
// data frames and its floods from two separate sequences, so data sent
// between two floods leaves no gap in the flood numbers a receiver's
// window waits on. send() originates a kData frame and hands it to
// next_hop_toward(); flood() originates a kFlood frame; send_direct()
// offers one kData frame straight to a one-hop target. A received kData
// frame goes to on_data(), which delivers or relays it; a kFlood frame to
// on_flood(), which drops it if seen, delivers it if addressed here (or to
// everyone) and re-broadcasts it unless it reached its target. The relay
// parses the frame in place and encodes the outbound frame (TTL - 1,
// hops + 1) straight from that view into one buffer, so a hop never copies
// the body out first. Floods seen are kept per origin in a DedupWindow
// (common/dedup_window.hpp) of kFloodWindow sequence numbers above a
// floor, so no per-origin state grows without bound. Each router keeps
// only its next-hop choice (next_hop_toward), its frame handler and its
// control messages (broadcast_control / on_control).

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/dedup_window.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace ndsm::routing {

using net::Proto;

// Wire header carried in every routing frame. kDvUpdate is the one-hop
// control beacon kind: DV route advertisements and Geo hellos.
enum class RoutingKind : std::uint8_t { kData = 1, kFlood = 2, kDvUpdate = 3 };

struct RoutingHeader {
  RoutingKind kind = RoutingKind::kData;
  NodeId origin;
  NodeId dst;             // net::kBroadcast for floods without a target
  std::uint32_t seq = 0;  // per-origin data or flood sequence; floods dedup on it
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

  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Send `payload` to `dst`, possibly over multiple hops. The default
  // originates one kData frame toward next_hop_toward() and returns ok
  // even when no hop is known (best effort: reliability lives in the
  // transport), unless has_path() rules the destination out.
  virtual Status send(NodeId dst, Proto upper, Bytes payload);

  // Network-wide flood (delivered to the upper layer on every reachable
  // node, including this one and nodes with no route state).
  virtual Status flood(Proto upper, Bytes payload, int ttl = kDefaultTtl);

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
  // Flood sequence numbers from `origin` held above its floor (at most
  // kFloodWindow).
  [[nodiscard]] std::size_t flood_ids_held(NodeId origin) const {
    const auto it = flood_seen_.find(origin);
    return it == flood_seen_.end() ? 0 : it->second.held();
  }

  static constexpr int kDefaultTtl = 32;
  // Flood sequence numbers remembered per origin above its floor. A flood
  // that arrives after more than this many later floods from its origin
  // counts as seen.
  static constexpr std::size_t kFloodWindow = 1024;

 protected:
  // Registers no frame handler: each router binds Proto::kRouting itself,
  // so a decorator built around a router does not take its frames.
  explicit Router(net::Stack& stack)
      : stack_(stack), self_(stack.self()), hops_hist_(register_metrics()) {}

  void deliver_local(NodeId origin, Proto upper, const Bytes& payload) {
    stats_.data_delivered++;
    const auto it = handlers_.find(upper);
    if (it != handlers_.end()) it->second(origin, payload);
  }

  // Delivery of a received frame's body with the frame's causal context
  // active, so upper layers that send from their handler continue the
  // trace. The body is copied out only when a handler is bound.
  void deliver_local(const RoutingView& v);

  // Originates a kFlood frame toward `dst` (net::kBroadcast: everyone,
  // this node included); FloodingRouter's send() floods toward a target
  // the link cannot reach in one hop.
  Status flood_to(NodeId dst, Proto upper, Bytes payload, int ttl);
  // Originates a kData frame for `dst` and offers it once to the link,
  // addressed to `dst` itself. True (counted in data_sent) when the link
  // took it; false when the link refused it (not one hop away, or this
  // node is down), which counts nothing.
  bool send_direct(NodeId dst, Proto upper, const Bytes& payload);

  // --- receiving ------------------------------------------------------------
  // Parses a routing frame and dispatches it by kind: kData to on_data(),
  // kFlood to on_flood(), a control beacon to on_control().
  void on_frame(const net::LinkFrame& frame);
  // A received kData frame: delivered when addressed here (recording its
  // hop count), otherwise relayed one hop on via send_toward().
  void on_data(RoutingView& v);
  // A received kFlood frame: dropped if seen, delivered if addressed here
  // or to everyone, re-broadcast unless it reached its target.
  void on_flood(RoutingView& v);

  // --- per-router hooks -----------------------------------------------------
  // The router's next hop toward `dst`, or invalid() to drop the frame
  // (counted in drops). Routers that unicast data override this.
  virtual NodeId next_hop_toward(NodeId dst);
  // Called once after the link layer refused the next_hop_toward() hop: a
  // different hop to retry on, or invalid() (the default) to drop.
  virtual NodeId retry_hop(NodeId dst);
  // Whether send() may originate toward `dst` at all (default: yes); a
  // refused send is counted sent and dropped and returns kUnreachable.
  virtual bool has_path(NodeId dst);
  // A received one-hop control beacon (kDvUpdate) from neighbour `from`.
  virtual void on_control(NodeId from, std::span<const std::uint8_t> body);
  // Broadcasts a one-hop control beacon carrying `body`, counted in
  // control_packets and control_bytes.
  void broadcast_control(const Bytes& body);

  net::Stack& stack_;
  NodeId self_;
  RouterStats stats_;

 private:
  // A header for a frame this node originates: the next number of its
  // flood sequence for kFlood, of its data sequence otherwise, and the
  // caller's active trace context at hop 0. The caller counts data_sent.
  RoutingHeader originate(RoutingKind kind, NodeId dst, Proto upper, int ttl);
  DedupWindow& flood_window(NodeId origin) {
    return flood_seen_.try_emplace(origin, kFloodWindow).first->second;
  }

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

  std::map<Proto, DeliveryHandler> handlers_;
  obs::MetricGroup metrics_;
  obs::Histogram& hops_hist_;
  std::uint32_t next_data_seq_ = 1;
  std::uint32_t next_flood_seq_ = 1;  // apart from data: no gaps in receivers' windows
  std::unordered_map<NodeId, DedupWindow> flood_seen_;  // by origin
};

}  // namespace ndsm::routing
