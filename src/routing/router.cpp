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

NodeId Router::next_hop_toward(NodeId /*dst*/) { return NodeId::invalid(); }

NodeId Router::retry_hop(NodeId /*dst*/) { return NodeId::invalid(); }

void Router::on_data(RoutingView& v) {
  if (v.header.dst == self_) {
    // TTL is decremented per relay, so remaining TTL gives link hops:
    // direct neighbour = 1 hop (no decrement), each relay adds one.
    record_delivery_hops(kDefaultTtl - static_cast<int>(v.header.ttl) + 1);
    deliver_local(v);
    return;
  }
  if (!begin_relay(v, "forward")) return;
  send_toward(v.header.dst, [&v] { return encode(v.header, v.body); });
}

void Router::relay_flood(RoutingView& v) {
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
