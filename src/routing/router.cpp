#include "routing/router.hpp"

#include "serialize/codec.hpp"

namespace ndsm::routing {
namespace {

Bytes encode(const RoutingHeader& header, std::span<const std::uint8_t> body) {
  serialize::Writer w;
  // kind + origin + dst + seq + ttl + upper = 23 fixed bytes, plus the
  // trace-context trailer.
  w.reserve(23 + serialize::varint_size(body.size()) + body.size() + obs::kTraceWireMax);
  w.u8(static_cast<std::uint8_t>(header.kind));
  w.id(header.origin);
  w.id(header.dst);
  w.u32(header.seq);
  w.u8(header.ttl);
  w.u8(static_cast<std::uint8_t>(header.upper));
  w.bytes(body);
  obs::encode_trace(w, header.trace);
  return std::move(w).take();
}

}  // namespace

Bytes encode_routing(const RoutingHeader& header, const Bytes& payload) {
  return encode(header, payload);
}

bool view_routing(const Bytes& frame, RoutingView& view) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  const auto origin = r.id<NodeId>();
  const auto dst = r.id<NodeId>();
  const auto seq = r.u32();
  const auto ttl = r.u8();
  const auto upper = r.u8();
  const auto body = r.bytes_view();
  if (!kind || !origin || !dst || !seq || !ttl || !upper || !body) return false;
  RoutingHeader& h = view.header;
  h.trace = obs::decode_trace(r);
  h.kind = static_cast<RoutingKind>(*kind);
  h.origin = *origin;
  h.dst = *dst;
  h.seq = *seq;
  h.ttl = *ttl;
  h.upper = static_cast<Proto>(*upper);
  view.body = *body;
  return true;
}

bool decode_routing(const Bytes& frame, RoutingHeader& header, Bytes& payload) {
  RoutingView view;
  if (!view_routing(frame, view)) return false;
  header = view.header;
  payload.assign(view.body.begin(), view.body.end());
  return true;
}

void Router::deliver_local(const RoutingView& v) {
  stats_.data_delivered++;
  const auto it = handlers_.find(v.header.upper);
  if (it == handlers_.end()) return;
  const Bytes payload(v.body.begin(), v.body.end());
  const obs::ScopedTrace scope(v.header.trace);
  it->second(v.header.origin, payload);
}

RoutingHeader Router::originate(RoutingKind kind, NodeId dst, Proto upper, int ttl) {
  RoutingHeader h;
  h.kind = kind;
  h.origin = self_;
  h.dst = dst;
  h.seq = kind == RoutingKind::kFlood ? next_flood_seq_++ : next_data_seq_++;
  h.ttl = static_cast<std::uint8_t>(ttl);
  h.upper = upper;
  h.trace = obs::active_trace();
  h.trace.hops = 0;
  return h;
}

Status Router::send(NodeId dst, Proto upper, Bytes payload) {
  if (dst == self_) {
    deliver_local(self_, upper, payload);
    return Status::ok();
  }
  const RoutingHeader h = originate(RoutingKind::kData, dst, upper, kDefaultTtl);
  stats_.data_sent++;
  if (!has_path(dst)) {
    stats_.drops++;
    return Status{ErrorCode::kUnreachable, "no path"};
  }
  send_toward(dst, [&] { return encode_routing(h, payload); });
  return Status::ok();
}

Status Router::flood(Proto upper, Bytes payload, int ttl) {
  return flood_to(net::kBroadcast, upper, std::move(payload), ttl);
}

Status Router::flood_to(NodeId dst, Proto upper, Bytes payload, int ttl) {
  const RoutingHeader h = originate(RoutingKind::kFlood, dst, upper, ttl);
  stats_.data_sent++;
  (void)flood_window(self_).insert(h.seq);  // never re-forward our own packet
  if (dst == net::kBroadcast) deliver_local(self_, upper, payload);  // local subscribers too
  return stack_.broadcast_frame(Proto::kRouting, encode_routing(h, payload));
}

bool Router::send_direct(NodeId dst, Proto upper, const Bytes& payload) {
  const RoutingHeader h = originate(RoutingKind::kData, dst, upper, kDefaultTtl);
  if (!stack_.send_frame(dst, Proto::kRouting, encode_routing(h, payload)).is_ok()) return false;
  stats_.data_sent++;
  return true;
}

void Router::broadcast_control(const Bytes& body) {
  RoutingHeader h;
  h.kind = RoutingKind::kDvUpdate;
  h.origin = self_;
  h.dst = net::kBroadcast;
  h.ttl = 1;
  stats_.control_packets++;
  stats_.control_bytes += body.size();
  stack_.broadcast_frame(Proto::kRouting, encode_routing(h, body));
}

NodeId Router::next_hop_toward(NodeId /*dst*/) { return NodeId::invalid(); }

NodeId Router::retry_hop(NodeId /*dst*/) { return NodeId::invalid(); }

bool Router::has_path(NodeId /*dst*/) { return true; }

void Router::on_control(NodeId /*from*/, std::span<const std::uint8_t> /*body*/) {}

void Router::on_frame(const net::LinkFrame& frame) {
  RoutingView v;
  if (!view_routing(frame.payload(), v)) return;
  switch (v.header.kind) {
    case RoutingKind::kData:
      on_data(v);
      break;
    case RoutingKind::kFlood:
      on_flood(v);
      break;
    case RoutingKind::kDvUpdate:
      on_control(v.header.origin, v.body);
      break;
  }
}

void Router::on_data(RoutingView& v) {
  if (v.header.dst == self_) {
    // TTL is decremented per relay, so remaining TTL gives link hops:
    // direct neighbour = 1 hop (no decrement), each relay adds one.
    hops_hist_.observe(static_cast<double>(kDefaultTtl - static_cast<int>(v.header.ttl) + 1));
    deliver_local(v);
    return;
  }
  if (!begin_relay(v, "forward")) return;
  send_toward(v.header.dst, [&v] { return encode(v.header, v.body); });
}

void Router::on_flood(RoutingView& v) {
  const RoutingHeader& h = v.header;
  if (!flood_window(h.origin).insert(h.seq)) return;
  if (h.dst == self_ || h.dst == net::kBroadcast) deliver_local(v);
  if (h.dst == self_) return;  // a targeted flood reached its target: stop it
  if (!begin_relay(v, "flood_forward")) return;
  stack_.broadcast_frame(Proto::kRouting, encode(v.header, v.body));
}

bool Router::begin_relay(RoutingView& v, const char* trace_name) {
  RoutingHeader& h = v.header;
  if (h.ttl == 0) {
    stats_.drops++;
    return false;
  }
  h.ttl--;
  if (h.trace.hops < 255) h.trace.hops++;
  stats_.data_forwarded++;
  record_forward(h, trace_name);
  return true;
}

void Router::record_forward(const RoutingHeader& h, const char* name) const {
  if (!h.trace.valid()) return;
  obs::TraceEvent* ev = obs::Tracer::instance().begin_instant(
      "routing.router", name, static_cast<std::int64_t>(self_.value()), h.trace.trace_id, 0,
      h.trace.span_id, 4);
  if (ev == nullptr) return;
  ev->set_kv(0, "origin", h.origin.value());
  ev->set_kv(1, "dst", h.dst.value());
  ev->set_kv(2, "hops", h.trace.hops);
  ev->set_kv(3, "ttl", h.ttl);
}

}  // namespace ndsm::routing
