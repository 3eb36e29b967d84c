#include "routing/flooding.hpp"

namespace ndsm::routing {

FloodingRouter::FloodingRouter(net::Stack& stack) : Router(stack) {
  stack_.set_frame_handler(Proto::kRouting, [this](const net::LinkFrame& f) {
    RoutingView v;
    if (!view_routing(f.payload(), v)) return;
    if (v.header.kind == RoutingKind::kFlood) {
      on_flood(v);
    } else if (v.header.kind == RoutingKind::kData && v.header.dst == self_) {
      on_data(v);
    }
  });
}

FloodingRouter::~FloodingRouter() { stack_.clear_frame_handler(Proto::kRouting); }

Status FloodingRouter::send(NodeId dst, Proto upper, Bytes payload) {
  if (dst == self_) {
    deliver_local(self_, upper, payload);
    return Status::ok();
  }
  if (send_direct(dst, upper, payload)) return Status::ok();
  return flood_to(dst, upper, std::move(payload), kDefaultTtl);
}

}  // namespace ndsm::routing
