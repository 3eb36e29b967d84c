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
  serialize::Writer w;
  w.vec2(stack_.self_position());
  broadcast_control(std::move(w).take());
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

NodeId GeoRouter::next_hop_toward(NodeId dst) {
  const auto dst_pos = resolve_(dst);
  if (!dst_pos) return NodeId::invalid();
  if (is_live_neighbor(dst)) return dst;
  const NodeId hop = best_hop_toward(*dst_pos);
  if (!hop.valid()) local_minimum_drops_++;
  return hop;
}

void GeoRouter::on_control(NodeId from, std::span<const std::uint8_t> body) {
  serialize::Reader r{body.data(), body.size()};
  const auto pos = r.vec2();
  if (!pos) return;
  note_neighbor(from, *pos);
}

}  // namespace ndsm::routing
