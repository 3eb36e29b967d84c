#include "node/runtime.hpp"

#include <algorithm>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace ndsm::node {

Runtime::Runtime(net::World& world, Vec2 position, StackConfig config)
    : world_(&world),
      id_(world.add_node(position, config.battery)),
      owned_stack_(std::make_unique<net::WorldStack>(world, id_)),
      stack_(owned_stack_.get()),
      config_(std::move(config)) {
  for (const MediumId m : config_.media) world_->attach(id_, m);
  register_metrics();
  bring_up();
}

Runtime::Runtime(net::World& world, NodeId existing, StackConfig config)
    : world_(&world),
      id_(existing),
      owned_stack_(std::make_unique<net::WorldStack>(world, id_)),
      stack_(owned_stack_.get()),
      config_(std::move(config)) {
  register_metrics();
  bring_up();
}

Runtime::Runtime(net::Stack& stack, StackConfig config)
    : world_(stack.world_ptr()), id_(stack.self()), stack_(&stack), config_(std::move(config)) {
  register_metrics();
  bring_up();
}

Runtime::~Runtime() {
  if (up_) tear_down();
}

void Runtime::register_metrics() {
  metrics_.set_labels("node.runtime", static_cast<std::int64_t>(id_.value()));
  metrics_.counter("node.runtime.crashes", &stats_.crashes);
  metrics_.counter("node.runtime.restarts", &stats_.restarts);
  metrics_.counter("node.runtime.service_starts", &stats_.service_starts);
  metrics_.counter("node.runtime.service_stops", &stats_.service_stops);
  metrics_.gauge("node.runtime.up", [this] { return up_ ? 1.0 : 0.0; });
  metrics_.gauge("node.runtime.services",
                 [this] { return static_cast<double>(slots_.size()); });
}

std::unique_ptr<routing::Router> Runtime::make_router() {
  if (config_.router_factory) return config_.router_factory(*stack_);
  switch (config_.router) {
    case RouterPolicy::kGlobal:
      // Middleware-computed routes need the omniscient network view; only
      // a sim-backed stack can provide one.
      NDSM_INVARIANT(world_ != nullptr,
                     "RouterPolicy::kGlobal requires a simulated World backend");
      if (!config_.table) {
        config_.table =
            std::make_shared<routing::GlobalRoutingTable>(*world_, config_.metric);
      }
      return std::make_unique<routing::GlobalRouter>(*stack_, config_.table);
    case RouterPolicy::kDistanceVector:
      return std::make_unique<routing::DistanceVectorRouter>(*stack_,
                                                             config_.dv_update_period);
    case RouterPolicy::kFlooding:
      return std::make_unique<routing::FloodingRouter>(*stack_);
    case RouterPolicy::kGeographic:
      return std::make_unique<routing::GeoRouter>(*stack_, config_.geo_hello_period);
    case RouterPolicy::kCustom:
      break;
  }
  assert(false && "RouterPolicy::kCustom requires a router_factory");
  return std::make_unique<routing::FloodingRouter>(*stack_);
}

void Runtime::bring_up() {
  // Lifecycle state machine: DOWN -> (bring_up) -> UP -> (tear_down) ->
  // DOWN. The transitions are invariant-checked in every build — a stack
  // half-built or doubly-built is never recoverable, only exploitable.
  NDSM_INVARIANT(!up_, "bring_up on a node whose stack is already up");
  NDSM_INVARIANT(!router_ && !transport_,
                 "crashed node retained stack layers (teardown leak)");
  router_ = make_router();
  transport_ = std::make_unique<transport::ReliableTransport>(*router_, config_.transport);
  up_ = true;
  for (Slot& slot : slots_) {
    NDSM_AUDIT_ASSERT(!slot.service->running(),
                      "service survived the previous teardown");
    slot.service->start(*this);
    stats_.service_starts++;
  }
}

void Runtime::tear_down() {
  NDSM_INVARIANT(up_, "tear_down on a node whose stack is already down");
  // Services stop in reverse start order (dependents before providers),
  // then the transport (cancels retransmission timers, unbinds ports),
  // then the router (unhooks the link layer, stops protocol timers).
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    it->service->stop();
    NDSM_AUDIT_ASSERT(!it->service->running(), "service still running after stop()");
    stats_.service_stops++;
  }
  transport_.reset();
  router_.reset();
  up_ = false;
}

void Runtime::remove_service(const std::string& name) {
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [&](const Slot& s) { return s.name == name; });
  if (it == slots_.end()) return;
  if (it->service->running()) {
    it->service->stop();
    stats_.service_stops++;
  }
  slots_.erase(it);
}

recovery::StableStorage& Runtime::storage(const std::string& name) {
  auto& slot = storage_[name];
  if (!slot) slot = std::make_unique<recovery::StableStorage>();
  return *slot;
}

void Runtime::crash() {
  if (!up_) return;
  stats_.crashes++;
  NDSM_INFO("node", "node " << id_.value() << " crashes at "
                            << format_time(stack_->now()));
  obs::Tracer::instance().event("node.runtime", "crash",
                                static_cast<std::int64_t>(id_.value()));
  // Simulated crashes are routine; dump the ring only when armed
  // (NDSM_FLIGHTREC=1), e.g. while hunting a crash-correlated bug.
  if (obs::flight_recorder_armed()) {
    obs::flight_record("crash-node" + std::to_string(id_.value()),
                       "Runtime::crash at t=" + std::to_string(stack_->now()));
  }
  tear_down();
  // Go link-dead last: handlers are already detached, so the backend-level
  // death event (which notifies e.g. MiLAN's supervisor) observes a node
  // with no half-dismantled stack.
  stack_->set_link_down();
  NDSM_AUDIT_ASSERT(!stack_->online(), "crashed node still link-alive");
  // Middleware-computed routes through this node are stale immediately.
  if (config_.table) config_.table->invalidate();
}

void Runtime::restart() {
  if (up_) return;
  if (!stack_->set_link_up()) return;  // battery exhausted: cannot reboot
  stats_.restarts++;
  NDSM_INFO("node", "node " << id_.value() << " restarts at "
                            << format_time(stack_->now()));
  obs::Tracer::instance().event("node.runtime", "restart",
                                static_cast<std::int64_t>(id_.value()));
  bring_up();
  NDSM_AUDIT_ASSERT(up_ && router_ && transport_, "restart left the stack half-built");
  if (config_.table) config_.table->invalidate();
}

routing::Router* router_of(const std::vector<std::unique_ptr<Runtime>>& fleet, NodeId id) {
  for (const auto& rt : fleet) {
    if (rt && rt->id() == id) return rt->router_ptr();
  }
  return nullptr;
}

}  // namespace ndsm::node
