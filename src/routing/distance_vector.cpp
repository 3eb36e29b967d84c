#include "routing/distance_vector.hpp"

#include "serialize/codec.hpp"

namespace ndsm::routing {

DistanceVectorRouter::DistanceVectorRouter(net::Stack& stack, Time update_period)
    : Router(stack),
      update_period_(update_period),
      route_ttl_(update_period * 3 + duration::millis(500)),
      timer_(stack, update_period, [this] {
        expire_routes();
        advertise();
      }) {
  stack_.set_frame_handler(Proto::kRouting,
                           [this](const net::LinkFrame& f) { on_frame(f); });
  // Self-route.
  table_[self_] = Route{self_, 0, 0, kTimeNever};
  // Stagger initial advertisements so nodes do not all transmit at t=0.
  timer_.start(duration::millis(
      static_cast<std::int64_t>(stack_.fork_rng(self_.value()).uniform_int(1, 200))));
}

DistanceVectorRouter::~DistanceVectorRouter() { stack_.clear_frame_handler(Proto::kRouting); }

Bytes DistanceVectorRouter::encode_table() const {
  serialize::Writer w;
  w.varint(table_.size());
  for (const auto& [dst, route] : table_) {
    w.id(dst);
    w.u8(static_cast<std::uint8_t>(route.metric));
    w.u32(route.seq);
  }
  return std::move(w).take();
}

void DistanceVectorRouter::advertise() {
  if (!stack_.online()) {
    timer_.stop();
    return;
  }
  // Fresh sequence number for our own entry (DSDV).
  table_[self_] = Route{self_, 0, ++own_seq_, kTimeNever};
  broadcast_control(encode_table());
}

void DistanceVectorRouter::expire_routes() {
  const Time now = stack_.now();
  for (auto it = table_.begin(); it != table_.end();) {
    Route& route = it->second;
    if (it->first != self_ && route.metric < kInfinity &&
        now - route.refreshed > route_ttl_) {
      // DSDV invalidation: tombstone with a bumped sequence number. The
      // tombstone is advertised so neighbours drop the route too, and it
      // blocks resurrection from stale same-sequence advertisements.
      route.metric = kInfinity;
      route.seq += 1;
      route.refreshed = now;
      ++it;
    } else if (route.metric >= kInfinity && now - route.refreshed > route_ttl_ * 3) {
      it = table_.erase(it);  // tombstone served its purpose
    } else {
      ++it;
    }
  }
}

void DistanceVectorRouter::on_control(NodeId from, std::span<const std::uint8_t> body) {
  serialize::Reader r{body.data(), body.size()};
  const auto n = r.varint();
  if (!n) return;
  const Time now = stack_.now();
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto dst = r.id<NodeId>();
    const auto metric = r.u8();
    const auto seq = r.u32();
    if (!dst || !metric || !seq) return;
    if (*dst == self_) continue;
    const int candidate =
        *metric >= kInfinity ? kInfinity : std::min<int>(*metric + 1, kInfinity);
    auto it = table_.find(*dst);
    if (it == table_.end()) {
      table_[*dst] = Route{from, candidate, *seq, now};
      continue;
    }
    Route& route = it->second;
    // DSDV rule: newer sequence always wins (including invalidations);
    // same sequence only improves the metric.
    if (*seq > route.seq || (*seq == route.seq && candidate < route.metric)) {
      route = Route{from, candidate, *seq, now};
    } else if (*seq == route.seq && route.next_hop == from && candidate == route.metric &&
               candidate < kInfinity) {
      route.refreshed = now;  // current route re-confirmed
    }
  }
}

int DistanceVectorRouter::route_metric(NodeId dst) const {
  const auto it = table_.find(dst);
  return it == table_.end() ? kInfinity : it->second.metric;
}

NodeId DistanceVectorRouter::next_hop(NodeId dst) const {
  const auto it = table_.find(dst);
  if (it == table_.end() || it->second.metric >= kInfinity) return NodeId::invalid();
  return it->second.next_hop;
}

}  // namespace ndsm::routing
