#pragma once
// Shared fixtures: small simulated networks used across test suites.
// Both fixtures host one node::Runtime per node — tests reach subsystems
// through runtime(i)/router(i)/transport(i) and can crash()/restart()
// any node mid-test.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "node/runtime.hpp"
#include "obs/trace.hpp"
#include "routing/global.hpp"
#include "sim/simulator.hpp"
#include "transport/reliable.hpp"

namespace ndsm::testing {

// The names of `from`'s causal ancestors in `events`, nearest first. Each
// step follows parent_span to the first recorded event with that span id.
// The walk stops after an event named `root`, at a span no event has, or
// at an event of another trace, which it names "<other trace>".
inline std::vector<std::string> trace_ancestry(const std::vector<obs::TraceEvent>& events,
                                               const obs::TraceEvent& from,
                                               std::string_view root) {
  std::map<std::uint64_t, const obs::TraceEvent*> by_span;
  for (const auto& e : events) {
    if (e.span_id != 0) by_span.emplace(e.span_id, &e);
  }
  std::vector<std::string> names;
  std::uint64_t parent = from.parent_span;
  while (names.size() < 32) {
    const auto it = by_span.find(parent);
    if (it == by_span.end()) break;
    const obs::TraceEvent& e = *it->second;
    if (e.trace_id != from.trace_id) {
      names.emplace_back("<other trace>");
      break;
    }
    names.push_back(e.name);
    if (e.name == root) break;
    parent = e.parent_span;
  }
  return names;
}

// A wired LAN: `n` mains-powered nodes on one ethernet segment, each
// running a full stack (GlobalRouter + ReliableTransport) in a Runtime.
struct Lan {
  explicit Lan(std::size_t n, std::uint64_t seed = 42,
               net::LinkSpec spec = net::ethernet100())
      : sim(seed), world(sim) {
    medium = world.add_medium(std::move(spec));
    table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kGlobal;
    cfg.table = table;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = world.add_node(Vec2{static_cast<double>(i) * 10.0, 0.0});
      world.attach(id, medium);
      nodes.push_back(id);
      runtimes.push_back(std::make_unique<node::Runtime>(world, id, cfg));
    }
  }

  node::Runtime& runtime(std::size_t i) { return *runtimes[i]; }
  transport::ReliableTransport& transport(std::size_t i) { return runtimes[i]->transport(); }
  routing::Router& router(std::size_t i) { return runtimes[i]->router(); }

  sim::Simulator sim;
  net::World world;
  MediumId medium;
  std::shared_ptr<routing::GlobalRoutingTable> table;
  std::vector<NodeId> nodes;
  std::vector<std::unique_ptr<node::Runtime>> runtimes;
};

// A wireless multi-hop grid: nodes on a sqrt(n) x sqrt(n) lattice with
// `spacing` metres between neighbours and radio range just over one hop.
struct WirelessGrid {
  explicit WirelessGrid(std::size_t n, double spacing = 20.0, std::uint64_t seed = 42,
                        double battery_j = 1e9, double loss = 0.0)
      : sim(seed), world(sim) {
    const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    // Range excludes lattice diagonals (spacing*sqrt(2) ≈ 1.41*spacing), so
    // the grid is 4-connected and hop counts are Manhattan distances.
    net::LinkSpec spec = net::wifi80211(spacing * 1.25, loss);
    medium = world.add_medium(std::move(spec));
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 pos{static_cast<double>(i % side) * spacing,
                     static_cast<double>(i / side) * spacing};
      const NodeId id = world.add_node(pos, net::Battery{battery_j});
      world.attach(id, medium);
      nodes.push_back(id);
    }
  }

  // Bring stacks up after construction so tests can pick the router type.
  template <class RouterT, class... Args>
  void with_routers(Args... args) {
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kCustom;
    cfg.router_factory = [args...](net::Stack& stack) {
      return std::make_unique<RouterT>(stack, args...);
    };
    for (const NodeId id : nodes) {
      runtimes.push_back(std::make_unique<node::Runtime>(world, id, cfg));
    }
  }

  node::Runtime& runtime(std::size_t i) { return *runtimes[i]; }
  transport::ReliableTransport& transport(std::size_t i) { return runtimes[i]->transport(); }
  routing::Router& router(std::size_t i) { return runtimes[i]->router(); }

  sim::Simulator sim;
  net::World world;
  MediumId medium;
  std::vector<NodeId> nodes;
  std::vector<std::unique_ptr<node::Runtime>> runtimes;
};

}  // namespace ndsm::testing
