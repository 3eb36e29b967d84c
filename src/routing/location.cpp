#include "routing/location.hpp"

#include "serialize/codec.hpp"

namespace ndsm::routing {

LocationService::LocationService(Router& router, Time beacon_period)
    : router_(router),
      timer_(router.stack(), beacon_period, [this] { beacon(); }) {
  router_.set_delivery_handler(
      Proto::kLocation, [this](NodeId origin, const Bytes& b) { on_beacon(origin, b); });
  // Jittered start so beacons from different nodes interleave.
  timer_.start(duration::millis(static_cast<std::int64_t>(
      router.stack().fork_rng(router.self().value() ^ 0x10c).uniform_int(1, 500))));
  // We always know our own position.
  cache_[router_.self()] =
      Entry{router_.stack().self_position(), router_.stack().now()};
}

LocationService::~LocationService() { router_.clear_delivery_handler(Proto::kLocation); }

void LocationService::beacon() {
  auto& stack = router_.stack();
  if (!stack.online()) {
    timer_.stop();
    return;
  }
  const Vec2 pos = stack.self_position();
  cache_[router_.self()] = Entry{pos, stack.now()};
  serialize::Writer w;
  w.vec2(pos);
  router_.flood(Proto::kLocation, std::move(w).take());
}

void LocationService::on_beacon(NodeId origin, const Bytes& payload) {
  serialize::Reader r{payload};
  const auto pos = r.vec2();
  if (!pos) return;
  cache_[origin] = Entry{*pos, router_.stack().now()};
}

std::optional<Vec2> LocationService::lookup(NodeId node, Time max_age) const {
  const auto it = cache_.find(node);
  if (it == cache_.end()) return std::nullopt;
  if (max_age != kTimeNever &&
      router_.stack().now() - it->second.updated > max_age) {
    return std::nullopt;
  }
  return it->second.position;
}

}  // namespace ndsm::routing
