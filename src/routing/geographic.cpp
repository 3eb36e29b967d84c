#include "routing/geographic.hpp"

#include <algorithm>

#include "serialize/codec.hpp"

namespace ndsm::routing {
namespace {

// The first neighbour-table entry whose id is not below `id`.
template <class Table>
auto lower_bound_id(Table& table, NodeId id) {
  return std::lower_bound(table.begin(), table.end(), id,
                          [](const auto& n, NodeId v) { return n.id < v; });
}

}  // namespace

GeoRouter::GeoRouter(net::Stack& stack, Time hello_period)
    : Router(stack),
      hello_period_(hello_period),
      neighbor_ttl_(hello_period * 3 + duration::millis(300)),
      resolve_([this](NodeId node) -> std::optional<Vec2> {
        return stack_.peer_online(node) ? stack_.position_of(node) : std::nullopt;
      }),
      hello_timer_(stack, hello_period, [this] { hello(); }) {
  stack_.set_frame_handler(Proto::kRouting,
                           [this](const net::LinkFrame& f) { on_frame(f); });
  hello_timer_.start(duration::millis(static_cast<std::int64_t>(
      stack_.fork_rng(self_.value() ^ 0x9e0).uniform_int(1, 400))));
}

GeoRouter::~GeoRouter() { stack_.clear_frame_handler(Proto::kRouting); }

void GeoRouter::hello() {
  if (!stack_.online()) {
    hello_timer_.stop();
    return;
  }
  RoutingHeader h;
  h.kind = RoutingKind::kDvUpdate;  // reused as "control beacon" kind
  h.origin = self_;
  h.dst = net::kBroadcast;
  h.ttl = 1;
  serialize::Writer w;
  w.vec2(stack_.self_position());
  const Bytes body = std::move(w).take();
  stats_.control_packets++;
  stats_.control_bytes += body.size();
  stack_.broadcast_frame(Proto::kRouting, encode_routing(h, body));
}

void GeoRouter::note_neighbor(NodeId id, Vec2 position) {
  const auto it = lower_bound_id(neighbors_, id);
  if (it != neighbors_.end() && it->id == id) {
    it->position = position;
    it->heard = stack_.now();
    return;
  }
  neighbors_.insert(it, Neighbor{id, position, stack_.now()});
}

bool GeoRouter::is_live_neighbor(NodeId id) const {
  const auto it = lower_bound_id(neighbors_, id);
  return it != neighbors_.end() && it->id == id && stack_.now() - it->heard <= neighbor_ttl_;
}

NodeId GeoRouter::best_hop_toward(Vec2 dst_pos) const {
  const Time now = stack_.now();
  const double own_distance = distance(stack_.self_position(), dst_pos);
  NodeId best = NodeId::invalid();
  double best_distance = own_distance;  // strictly closer than self, else stuck
  for (const Neighbor& n : neighbors_) {
    if (now - n.heard > neighbor_ttl_) continue;
    const double d = distance(n.position, dst_pos);
    if (d < best_distance) {
      best_distance = d;
      best = n.id;
    }
  }
  return best;
}

Status GeoRouter::send(NodeId dst, Proto upper, Bytes payload) {
  if (dst == self_) {
    deliver_local(self_, upper, payload);
    return Status::ok();
  }
  RoutingHeader h;
  h.kind = RoutingKind::kData;
  h.origin = self_;
  h.dst = dst;
  h.seq = next_seq_++;
  h.ttl = static_cast<std::uint8_t>(kDefaultTtl);
  h.upper = upper;
  stamp_trace(h);
  stats_.data_sent++;
  send_toward(dst, [&] { return encode_routing(h, payload); });
  return Status::ok();
}

NodeId GeoRouter::next_hop_toward(NodeId dst) {
  const auto dst_pos = resolve_(dst);
  if (!dst_pos) return NodeId::invalid();
  if (is_live_neighbor(dst)) return dst;
  const NodeId hop = best_hop_toward(*dst_pos);
  if (!hop.valid()) local_minimum_drops_++;
  return hop;
}

Status GeoRouter::flood(Proto upper, Bytes payload, int ttl) {
  RoutingHeader h;
  h.kind = RoutingKind::kFlood;
  h.origin = self_;
  h.dst = net::kBroadcast;
  h.seq = next_seq_++;
  h.ttl = static_cast<std::uint8_t>(ttl);
  h.upper = upper;
  stamp_trace(h);
  seen_[self_].insert(h.seq);
  deliver_local(self_, upper, payload);
  stats_.data_sent++;
  return stack_.broadcast_frame(Proto::kRouting, encode_routing(h, payload));
}

void GeoRouter::on_frame(const net::LinkFrame& frame) {
  RoutingView v;
  if (!view_routing(frame.payload(), v)) return;
  switch (v.header.kind) {
    case RoutingKind::kDvUpdate: {  // hello beacon
      serialize::Reader r{v.body.data(), v.body.size()};
      const auto pos = r.vec2();
      if (!pos) return;
      note_neighbor(v.header.origin, *pos);
      break;
    }
    case RoutingKind::kData:
      on_data(v);
      break;
    case RoutingKind::kFlood:
      if (!seen_[v.header.origin].insert(v.header.seq).second) return;
      deliver_local(v);
      relay_flood(v);
      break;
  }
}

}  // namespace ndsm::routing
