#pragma once
// Shared fixtures: small simulated networks used across test suites.
// Both fixtures host one node::Runtime per node — tests reach subsystems
// through runtime(i)/router(i)/transport(i) and can crash()/restart()
// any node mid-test.

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "net/faults.hpp"
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

// Arms `faults`, a plan on `sim`'s world, with a seeded random plan for an
// app soak that quiesces at `quiesce`. Every fault ends by 0.7 * quiesce:
//   * up to two partition windows, each splitting off a random island of
//     `nodes`,
//   * Gilbert–Elliott burst loss on `medium`,
//   * duplication and jitter, each late by at most `max_delay` (keep it
//     below the transport's initial RTO),
//   * up to two pauses of random `nodes`,
//   * up to two crash/restart cycles of random `crashable` nodes (the
//     plan's lifecycle hooks must be set when `crashable` is not empty).
// Returns the plan as text, for failure messages.
inline std::string arm_random_faults(sim::Simulator& sim, net::FaultPlan& faults,
                                     std::uint64_t seed, MediumId medium,
                                     const std::vector<NodeId>& nodes,
                                     const std::vector<NodeId>& crashable, Time quiesce,
                                     Time max_delay) {
  Rng rng{seed};
  std::ostringstream plan;
  const auto window = [&rng, quiesce](Time& start, Time& length) {
    start = rng.uniform_int(duration::millis(500), quiesce * 4 / 10);
    length = rng.uniform_int(duration::millis(200), quiesce * 3 / 10);
  };
  const auto pick = [&rng](const std::vector<NodeId>& from) {
    const auto last = static_cast<std::int64_t>(from.size()) - 1;
    return from[static_cast<std::size_t>(rng.uniform_int(0, last))];
  };
  Time start = 0;
  Time length = 0;
  for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
    std::vector<NodeId> island;
    for (const NodeId n : nodes) {
      if (rng.bernoulli(0.3)) island.push_back(n);
    }
    window(start, length);
    faults.partition(start, island, length);
    plan << "partition(" << island.size() << " nodes, " << start << ", " << length << ") ";
  }
  const net::BurstLossSpec burst{rng.uniform(0.001, 0.05), rng.uniform(0.1, 0.5),
                                 rng.uniform(0.0, 0.02), rng.uniform(0.2, 0.8)};
  faults.burst_loss(medium, burst);
  const double dup_p = rng.uniform(0.0, 0.1);
  const Time dup_max = rng.uniform_int(1, max_delay);
  faults.duplication(dup_p, dup_max);
  const double jitter_p = rng.uniform(0.0, 0.2);
  const Time jitter_max = rng.uniform_int(1, max_delay);
  faults.jitter(jitter_p, jitter_max);
  plan << "burst(" << burst.p_good_to_bad << ", " << burst.p_bad_to_good << ", "
       << burst.loss_good << ", " << burst.loss_bad << ") dup(" << dup_p << ", " << dup_max
       << ") jitter(" << jitter_p << ", " << jitter_max << ") ";
  // The channels heal with everything else.
  sim.schedule_at(quiesce * 7 / 10, [&faults, medium] {
    faults.burst_loss(medium, net::BurstLossSpec{});
    faults.duplication(0.0, 0);
    faults.jitter(0.0, 0);
  });
  for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
    const NodeId n = pick(nodes);
    window(start, length);
    faults.pause(start, n, length);
    plan << "pause(" << n.value() << ", " << start << ", " << length << ") ";
  }
  for (std::int64_t k = crashable.empty() ? 0 : rng.uniform_int(0, 2); k > 0; --k) {
    const NodeId n = pick(crashable);
    window(start, length);
    faults.crash(start, n, length);
    plan << "crash(" << n.value() << ", " << start << ", " << length << ") ";
  }
  return plan.str();
}

}  // namespace ndsm::testing
