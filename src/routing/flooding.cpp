#include "routing/flooding.hpp"

namespace ndsm::routing {

FloodingRouter::FloodingRouter(net::Stack& stack) : Router(stack) {
  stack_.set_frame_handler(Proto::kRouting,
                           [this](const net::LinkFrame& f) { on_frame(f); });
}

FloodingRouter::~FloodingRouter() { stack_.clear_frame_handler(Proto::kRouting); }

bool FloodingRouter::seen_before(NodeId origin, std::uint32_t seq) {
  return !seen_[origin].insert(seq).second;
}

Status FloodingRouter::originate(NodeId dst, Proto upper, Bytes payload, int ttl) {
  RoutingHeader h;
  h.kind = RoutingKind::kFlood;
  h.origin = self_;
  h.dst = dst;
  h.seq = next_seq_++;
  h.ttl = static_cast<std::uint8_t>(ttl);
  h.upper = upper;
  stamp_trace(h);
  (void)seen_before(self_, h.seq);  // never re-forward our own packet
  if (dst == net::kBroadcast) deliver_local(self_, upper, payload);  // local subscribers too
  stats_.data_sent++;
  return stack_.broadcast_frame(Proto::kRouting, encode_routing(h, payload));
}

Status FloodingRouter::send(NodeId dst, Proto upper, Bytes payload) {
  if (dst == self_) {
    deliver_local(self_, upper, payload);
    return Status::ok();
  }
  return originate(dst, upper, std::move(payload), kDefaultTtl);
}

Status FloodingRouter::flood(Proto upper, Bytes payload, int ttl) {
  return originate(net::kBroadcast, upper, std::move(payload), ttl);
}

void FloodingRouter::on_frame(const net::LinkFrame& frame) {
  RoutingView v;
  if (!view_routing(frame.payload(), v)) return;
  const RoutingHeader& h = v.header;
  if (h.kind != RoutingKind::kFlood) return;
  if (seen_before(h.origin, h.seq)) return;

  const bool for_us = h.dst == self_ || h.dst == net::kBroadcast;
  if (for_us) deliver_local(v);
  if (h.dst == self_) return;  // unicast reached its target: stop the flood
  relay_flood(v);
}

}  // namespace ndsm::routing
