#pragma once
// node::Runtime — one object per node that owns the node's whole
// middleware stack and its lifecycle. The paper's position (§4, MiLAN) is
// that the middleware *owns* each node's configuration — which roles it
// plays, how it routes, which services run — and reconfigures it at
// runtime. That requires a composition object: before this existed, every
// deployment hand-assembled `World -> Router -> ReliableTransport ->
// {services}` with parallel vectors, and nothing could take a node down
// and bring it back.
//
// A Runtime is constructed from `(World&, position, StackConfig)` — or,
// for a real deployment, from any externally owned `net::Stack` (e.g. a
// UdpStack bound to real sockets). It
//   * registers the node with the World (or adopts an existing NodeId, or
//     adopts the identity of the supplied stack),
//   * builds the router according to the configured policy (global /
//     distance-vector / flooding / geographic, or a custom factory),
//   * builds the reliable transport on top,
//   * hosts a service container: named services with a uniform
//     start/stop lifecycle, constructed by stored factories so they can
//     be rebuilt after a crash,
//   * owns named stable-storage volumes that SURVIVE crash() — the §3.8
//     split between volatile state (lost) and stable storage (kept).
//
// Lifecycle:
//   crash()    fail-stop: services stop in reverse start order, the
//              transport and router are destroyed (cancelling their
//              timers and detaching their link/port handlers), in-flight
//              state is dropped, and the node goes link-dead in the
//              World. Stable storage and the service recipe survive.
//   restart()  the node rejoins the World and the stack is rebuilt from
//              StackConfig plus the registered service factories, in the
//              original registration order. Services rehydrate whatever
//              they persisted via storage().
//
// This makes node churn, fail-stop faults and log-based recovery
// expressible in one call each, on any deployment built on Runtime.

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "obs/metrics.hpp"
#include "recovery/storage.hpp"
#include "routing/distance_vector.hpp"
#include "routing/flooding.hpp"
#include "routing/geographic.hpp"
#include "routing/global.hpp"
#include "transport/reliable.hpp"

namespace ndsm::node {

class Runtime;

// How the node routes. kGlobal shares a middleware-computed table
// (StackConfig::table); the others run their distributed protocol
// per-node. kCustom uses StackConfig::router_factory.
enum class RouterPolicy : std::uint8_t {
  kGlobal,
  kDistanceVector,
  kFlooding,
  kGeographic,
  kCustom,
};

struct StackConfig {
  RouterPolicy router = RouterPolicy::kGlobal;
  // kGlobal: the shared routing table. When empty, the Runtime lazily
  // creates a private one (fine for single-node tests; deployments share
  // one table across all nodes).
  std::shared_ptr<routing::GlobalRoutingTable> table;
  routing::Metric metric = routing::Metric::kHopCount;  // for a lazily made table
  Time dv_update_period = duration::seconds(5);         // kDistanceVector
  Time geo_hello_period = duration::seconds(2);         // kGeographic
  // kCustom (or any policy override): build the router yourself. Stored,
  // so restart() rebuilds through the same factory.
  std::function<std::unique_ptr<routing::Router>(net::Stack&)> router_factory;
  transport::TransportConfig transport;
  // Used only by the node-creating constructor:
  net::Battery battery = net::Battery::mains();
  std::vector<MediumId> media;  // attached after add_node
};

// Uniform lifecycle every hosted service implements. Concrete middleware
// components (directory, discovery clients, RPC/pub-sub/tuple-space
// endpoints, the MiLAN engine, ...) are adapted by FactoryService below:
// start() constructs the component (its constructor binds ports and arms
// timers), stop() destroys it (its destructor unbinds and cancels).
class Service {
 public:
  virtual ~Service() = default;
  virtual void start(Runtime& rt) = 0;
  virtual void stop() = 0;
  [[nodiscard]] virtual bool running() const = 0;
  [[nodiscard]] virtual void* raw() = 0;
};

// Adapts any component type to the Service lifecycle via a stored
// factory. If T has start()/stop() members (e.g. MilanEngine), they are
// called after construction / before destruction.
template <class T>
class FactoryService final : public Service {
 public:
  using Factory = std::function<std::unique_ptr<T>(Runtime&)>;
  explicit FactoryService(Factory make) : make_(std::move(make)) {}

  void start(Runtime& rt) override {
    obj_ = make_(rt);
    if constexpr (requires(T& t) { t.start(); }) obj_->start();
  }
  void stop() override {
    if (!obj_) return;
    if constexpr (requires(T& t) { t.stop(); }) obj_->stop();
    obj_.reset();
  }
  [[nodiscard]] bool running() const override { return obj_ != nullptr; }
  [[nodiscard]] void* raw() override { return obj_.get(); }

 private:
  Factory make_;
  std::unique_ptr<T> obj_;
};

struct RuntimeStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t service_starts = 0;
  std::uint64_t service_stops = 0;
};

class Runtime {
 public:
  // Create a new node in the World at `position` (battery and media from
  // the config), then bring the stack up.
  Runtime(net::World& world, Vec2 position, StackConfig config = {});
  // Adopt an existing node (the caller already called add_node/attach)
  // and bring the stack up on it.
  Runtime(net::World& world, NodeId existing, StackConfig config = {});
  // Run on an externally owned network backend (e.g. net::UdpStack for a
  // real OS-process deployment). The stack must outlive the Runtime.
  // Policies needing the sim World's global view (kGlobal) require a
  // backend whose world_ptr() is non-null.
  explicit Runtime(net::Stack& stack, StackConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool up() const { return up_; }
  // The network backend this node runs on.
  [[nodiscard]] net::Stack& net_stack() { return *stack_; }
  [[nodiscard]] const StackConfig& config() const { return config_; }
  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }

  // The stack layers. Reference accessors assert the node is up; the
  // *_ptr forms return nullptr while crashed (useful for router_of-style
  // maps that must tolerate churn).
  [[nodiscard]] routing::Router& router() {
    assert(router_ && "node is crashed");
    return *router_;
  }
  [[nodiscard]] transport::ReliableTransport& transport() {
    assert(transport_ && "node is crashed");
    return *transport_;
  }
  [[nodiscard]] routing::Router* router_ptr() { return router_.get(); }
  [[nodiscard]] transport::ReliableTransport* transport_ptr() { return transport_.get(); }

  // --- service container -----------------------------------------------------
  // Register a service built by `make`; if the node is up it starts
  // immediately. The factory is kept so restart() can rebuild it.
  template <class T>
  T& add_service(std::string name, typename FactoryService<T>::Factory make) {
    slots_.push_back({std::move(name), std::make_unique<FactoryService<T>>(std::move(make))});
    Slot& slot = slots_.back();
    if (up_) {
      slot.service->start(*this);
      stats_.service_starts++;
    }
    return *static_cast<T*>(slot.service->raw());
  }

  // Convenience for the common shape `T(transport, args...)`. Arguments
  // are captured by value so the service can be rebuilt after a crash.
  template <class T, class... Args>
  T& emplace_service(std::string name, Args... args) {
    return add_service<T>(std::move(name), [args...](Runtime& rt) {
      return std::make_unique<T>(rt.transport(), args...);
    });
  }

  // The live instance, or nullptr if unknown / currently crashed.
  template <class T>
  [[nodiscard]] T* service(const std::string& name) {
    for (Slot& slot : slots_) {
      if (slot.name == name) return static_cast<T*>(slot.service->raw());
    }
    return nullptr;
  }

  // Stop (if running) and forget a service.
  void remove_service(const std::string& name);
  [[nodiscard]] std::size_t service_count() const { return slots_.size(); }

  // --- durable per-node storage ----------------------------------------------
  // Named stable-storage volume owned by the runtime, NOT by the stack:
  // it survives crash(). Services that need §3.8 recovery build their
  // WAL / RecoverableStore on one of these inside their factory, so a
  // restarted service rehydrates from what the pre-crash incarnation
  // logged.
  [[nodiscard]] recovery::StableStorage& storage(const std::string& name);

  // --- lifecycle --------------------------------------------------------------
  // Fail-stop crash. No-op if already down.
  void crash();
  // Rebuild the stack and rejoin the network. No-op if up, or if the
  // node's battery is exhausted (a dead battery cannot reboot).
  void restart();

 private:
  struct Slot {
    std::string name;
    std::unique_ptr<Service> service;
  };

  void bring_up();
  void tear_down();
  [[nodiscard]] std::unique_ptr<routing::Router> make_router();
  void register_metrics();

  net::World* world_;  // null when running on a non-sim backend
  NodeId id_;
  // Owned when a World ctor built a WorldStack; null for an external stack.
  std::unique_ptr<net::Stack> owned_stack_;
  net::Stack* stack_;
  StackConfig config_;
  bool up_ = false;
  std::unique_ptr<routing::Router> router_;
  std::unique_ptr<transport::ReliableTransport> transport_;
  std::vector<Slot> slots_;
  std::map<std::string, std::unique_ptr<recovery::StableStorage>> storage_;
  RuntimeStats stats_;
  obs::MetricGroup metrics_;
};

// Current router of the runtime hosting `id` (nullptr while that node is
// crashed or unknown) — the router_of shape MiLAN and benches need,
// robust to restarts because it is resolved per call.
[[nodiscard]] routing::Router* router_of(const std::vector<std::unique_ptr<Runtime>>& fleet,
                                         NodeId id);

}  // namespace ndsm::node
