// Tests for the extension features: geographic routing, session handoff,
// and MiLAN event integration.

#include <gtest/gtest.h>

#include "net/world_stack.hpp"
#include "milan/engine.hpp"
#include "routing/geographic.hpp"
#include "scheduling/handoff.hpp"
#include "test_helpers.hpp"
#include "transactions/events.hpp"

namespace ndsm {
namespace {

using serialize::Value;
using testing::Lan;
using testing::WirelessGrid;

struct GeoGrid : WirelessGrid {
  explicit GeoGrid(std::size_t n) : WirelessGrid(n) {
    with_routers<routing::GeoRouter>(duration::seconds(1));
    sim.run_until(duration::seconds(3));  // let hello beacons populate tables
  }
  routing::GeoRouter& geo(std::size_t i) {
    return static_cast<routing::GeoRouter&>(router(i));
  }
};

TEST(GeoRouting, HelloBeaconsPopulateNeighborTables) {
  GeoGrid grid{9};
  // Corner node has exactly two lattice neighbours.
  EXPECT_EQ(grid.geo(0).known_neighbors(), 2u);
  // Centre node has four.
  EXPECT_EQ(grid.geo(4).known_neighbors(), 4u);
}

TEST(GeoRouting, GreedyForwardingDeliversAcrossGrid) {
  GeoGrid grid{16};
  Bytes got;
  NodeId origin;
  grid.router(15).set_delivery_handler(routing::Proto::kApp,
                                       [&](NodeId o, const Bytes& b) {
                                         got = b;
                                         origin = o;
                                       });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[15], routing::Proto::kApp,
                                  to_bytes("geo")).is_ok());
  grid.sim.run_until(duration::seconds(5));
  EXPECT_EQ(to_string(got), "geo");
  EXPECT_EQ(origin, grid.nodes[0]);
}

TEST(GeoRouting, ProgressIsMonotone) {
  // Forwarding only ever moves the packet strictly closer to the target,
  // so hop count on a line equals the Manhattan distance.
  GeoGrid grid{9};
  for (std::size_t i = 0; i < 9; ++i) {
    grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
  }
  grid.sim.run_until(duration::seconds(8));  // re-beacon at new positions
  int delivered = 0;
  grid.router(8).set_delivery_handler(routing::Proto::kApp,
                                      [&](NodeId, const Bytes&) { delivered++; });
  grid.router(0).send(grid.nodes[8], routing::Proto::kApp, to_bytes("x"));
  grid.sim.run_until(duration::seconds(10));
  EXPECT_EQ(delivered, 1);
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < 9; ++i) forwards += grid.router(i).stats().data_forwarded;
  EXPECT_EQ(forwards, 7u);  // 8 hops = 7 intermediate forwards
}

TEST(GeoRouting, LocalMinimumCountedNotLooped) {
  // A void: the destination is across a gap no neighbour gets closer to.
  sim::Simulator sim{3};
  net::World world{sim};
  const MediumId m = world.add_medium(net::wifi80211(25, 0));
  // Source and one neighbour *behind* it; target far ahead, out of range.
  const NodeId src = world.add_node({0, 0});
  const NodeId behind = world.add_node({-20, 0});
  const NodeId target = world.add_node({100, 0});
  for (const NodeId n : {src, behind, target}) world.attach(n, m);
  net::WorldStack s_src{world, src};
  net::WorldStack s_behind{world, behind};
  net::WorldStack s_target{world, target};
  routing::GeoRouter r_src{s_src, duration::seconds(1)};
  routing::GeoRouter r_behind{s_behind, duration::seconds(1)};
  routing::GeoRouter r_target{s_target, duration::seconds(1)};
  sim.run_until(duration::seconds(3));
  r_src.send(target, routing::Proto::kApp, to_bytes("stuck"));
  sim.run_until(duration::seconds(5));
  EXPECT_EQ(r_src.local_minimum_drops(), 1u);
  EXPECT_EQ(r_src.stats().drops, 1u);
}

TEST(GeoRouting, MissingDestinationPositionDrops) {
  GeoGrid grid{4};
  grid.geo(0).set_position_resolver([](NodeId) { return std::nullopt; });
  grid.router(0).send(grid.nodes[3], routing::Proto::kApp, to_bytes("x"));
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(grid.geo(0).stats().drops, 1u);
}

TEST(GeoRouting, StaleNeighborsExpire) {
  GeoGrid grid{4};
  EXPECT_GE(grid.geo(0).known_neighbors(), 2u);
  grid.world.kill(grid.nodes[1]);
  grid.world.kill(grid.nodes[2]);
  grid.sim.run_until(duration::seconds(10));
  // Entries persist but are ignored once past the TTL: a send toward a
  // dead-neighbour direction hits the local-minimum path.
  grid.router(0).send(grid.nodes[3], routing::Proto::kApp, to_bytes("x"));
  grid.sim.run_until(duration::seconds(12));
  EXPECT_GE(grid.geo(0).stats().drops, 1u);
}

TEST(GeoRouting, FloodStillWorks) {
  GeoGrid grid{9};
  int received = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(routing::Proto::kApp,
                                        [&](NodeId, const Bytes&) { received++; });
  }
  grid.router(4).flood(routing::Proto::kApp, to_bytes("all"));
  grid.sim.run_until(duration::seconds(5));
  EXPECT_EQ(received, 9);
}

TEST(Handoff, SessionMovesAndAcknowledges) {
  Lan lan{3};
  scheduling::HandoffManager a{lan.transport(0)};
  scheduling::HandoffManager b{lan.transport(1)};

  std::string state_at_b;
  b.register_session_type("counter", [&](NodeId from, const Bytes& state) {
    EXPECT_EQ(from, lan.nodes[0]);
    state_at_b = to_string(state);
    return Status::ok();
  });

  Status result{ErrorCode::kInternal, ""};
  a.handoff("counter", to_bytes("count=41"), lan.nodes[1],
            [&](Status s) { result = s; });
  lan.sim.run_until(duration::seconds(2));
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(state_at_b, "count=41");
  EXPECT_EQ(a.stats().completed, 1u);
  EXPECT_EQ(b.stats().received, 1u);
}

TEST(Handoff, UnknownTypeRejected) {
  Lan lan{2};
  scheduling::HandoffManager a{lan.transport(0)};
  scheduling::HandoffManager b{lan.transport(1)};
  Status result;
  a.handoff("unregistered", to_bytes("s"), lan.nodes[1], [&](Status s) { result = s; });
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(result.code(), ErrorCode::kRejected);
  EXPECT_EQ(b.stats().rejected, 1u);
  EXPECT_EQ(a.stats().failed, 1u);
}

TEST(Handoff, HandlerCanRefuse) {
  Lan lan{2};
  scheduling::HandoffManager a{lan.transport(0)};
  scheduling::HandoffManager b{lan.transport(1)};
  b.register_session_type("busy", [](NodeId, const Bytes&) {
    return Status{ErrorCode::kResourceExhausted, "node overloaded"};
  });
  Status result;
  a.handoff("busy", to_bytes("s"), lan.nodes[1], [&](Status s) { result = s; });
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(result.code(), ErrorCode::kRejected);
  EXPECT_EQ(result.message(), "node overloaded");
}

TEST(Handoff, TimeoutWhenTargetDead) {
  Lan lan{2};
  scheduling::HandoffManager a{lan.transport(0)};
  lan.world.kill(lan.nodes[1]);
  Status result;
  a.handoff("counter", to_bytes("s"), lan.nodes[1], [&](Status s) { result = s; },
            duration::seconds(1));
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
  // The source still owns the session (completed == 0).
  EXPECT_EQ(a.stats().completed, 0u);
}

// Only the target's accept completes a handoff: an accept from a node
// that was not asked must not hand the session to a down target.
TEST(Handoff, AcceptFromANodeNotAskedIsIgnored) {
  Lan lan{3};
  scheduling::HandoffManager a{lan.transport(0)};
  lan.runtime(1).crash();
  Status result;
  int callbacks = 0;
  a.handoff("counter", to_bytes("s"), lan.nodes[1], [&](Status s) {
    callbacks++;
    result = s;
  }, duration::seconds(1));
  serialize::Writer forged;
  forged.u8(2);      // kAccept
  forged.varint(1);  // the transfer's id
  lan.transport(2).send(lan.nodes[0], transport::ports::kHandoff, std::move(forged).take());
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
  EXPECT_EQ(a.stats().completed, 0u);
}

TEST(Handoff, ChainAcrossThreeNodes) {
  // A counter session hops 0 -> 1 -> 2, incremented at each stop.
  Lan lan{3};
  std::vector<std::unique_ptr<scheduling::HandoffManager>> managers;
  for (int i = 0; i < 3; ++i) {
    managers.push_back(std::make_unique<scheduling::HandoffManager>(
        lan.transport(static_cast<std::size_t>(i))));
  }
  int final_count = -1;
  auto parse = [](const Bytes& b) { return std::stoi(to_string(b)); };

  managers[1]->register_session_type("counter", [&](NodeId, const Bytes& state) {
    const int count = parse(state) + 1;
    managers[1]->handoff("counter", to_bytes(std::to_string(count)), lan.nodes[2],
                         [](Status) {});
    return Status::ok();
  });
  managers[2]->register_session_type("counter", [&](NodeId, const Bytes& state) {
    final_count = parse(state) + 1;
    return Status::ok();
  });
  managers[0]->handoff("counter", to_bytes("0"), lan.nodes[1], [](Status) {});
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(final_count, 2);
}

TEST(Handoff, LargeStateSurvivesFragmentation) {
  // Session state far above the 96 B fragment size crosses intact.
  Lan lan{2};
  scheduling::HandoffManager a{lan.transport(0)};
  scheduling::HandoffManager b{lan.transport(1)};
  Bytes state(5000);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = static_cast<std::uint8_t>(i * 13);
  }
  Bytes received;
  b.register_session_type("blob", [&](NodeId, const Bytes& s) {
    received = s;
    return Status::ok();
  });
  Status result;
  a.handoff("blob", state, lan.nodes[1], [&](Status s) { result = s; });
  lan.sim.run_until(duration::seconds(5));
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(received, state);
}

TEST(Handoff, ConcurrentTransfersIndependent) {
  Lan lan{3};
  scheduling::HandoffManager a{lan.transport(0)};
  scheduling::HandoffManager b{lan.transport(1)};
  scheduling::HandoffManager c{lan.transport(2)};
  std::string at_b;
  std::string at_c;
  b.register_session_type("s", [&](NodeId, const Bytes& st) {
    at_b = to_string(st);
    return Status::ok();
  });
  c.register_session_type("s", [&](NodeId, const Bytes& st) {
    at_c = to_string(st);
    return Status::ok();
  });
  int completed = 0;
  a.handoff("s", to_bytes("for-b"), lan.nodes[1], [&](Status s) { completed += s.is_ok(); });
  a.handoff("s", to_bytes("for-c"), lan.nodes[2], [&](Status s) { completed += s.is_ok(); });
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(at_b, "for-b");
  EXPECT_EQ(at_c, "for-c");
}

TEST(MilanEvents, EngineEmitsPlanAndStateEvents) {
  WirelessGrid grid{9, 20.0, 42, 1e9};
  auto table = std::make_shared<routing::GlobalRoutingTable>(grid.world,
                                                             routing::Metric::kHopCount);
  grid.with_routers<routing::GlobalRouter>(table);
  transactions::EventChannel channel{grid.transport(0)};

  std::vector<milan::Component> sensors;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    milan::Component c;
    c.id = ComponentId{i};
    c.node = grid.nodes[i * 3];
    c.qos["temp"] = 0.9;
    c.sample_power_w = 0.0001;
    sensors.push_back(std::move(c));
  }
  milan::ApplicationSpec app;
  app.variables = {"temp"};
  app.states["low"] = {{"temp", 0.5}};
  app.states["high"] = {{"temp", 0.95}};
  app.initial_state = "low";

  milan::MilanEngine engine{grid.world, grid.nodes[0], table,
                            [&](NodeId n) { return node::router_of(grid.runtimes, n); },
                            app, sensors};
  engine.set_event_channel(&channel);

  std::vector<std::string> events;
  channel.subscribe_local("", [&](const transactions::Event& e) {
    events.push_back(e.type);
  });

  engine.start();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back(), "milan.plan");

  engine.set_state("high");
  // "high" needs 0.95; two 0.9 sensors give 0.99 -> feasible, plan event.
  EXPECT_NE(std::find(events.begin(), events.end(), "milan.state"), events.end());

  // Kill both sensors: infeasible event.
  grid.world.kill(grid.nodes[3]);
  grid.world.kill(grid.nodes[6]);
  grid.sim.run_until(duration::seconds(2));
  EXPECT_NE(std::find(events.begin(), events.end(), "milan.infeasible"), events.end());
}

TEST(MilanEvents, PlanPayloadCarriesSummary) {
  WirelessGrid grid{4, 20.0, 42, 1e9};
  auto table = std::make_shared<routing::GlobalRoutingTable>(grid.world,
                                                             routing::Metric::kHopCount);
  grid.with_routers<routing::GlobalRouter>(table);
  transactions::EventChannel channel{grid.transport(0)};

  milan::Component c;
  c.id = ComponentId{1};
  c.node = grid.nodes[3];
  c.qos["temp"] = 0.9;
  milan::ApplicationSpec app;
  app.variables = {"temp"};
  app.states["on"] = {{"temp", 0.8}};
  app.initial_state = "on";
  milan::MilanEngine engine{grid.world, grid.nodes[0], table,
                            [&](NodeId n) { return node::router_of(grid.runtimes, n); },
                            app, {c}};
  engine.set_event_channel(&channel);
  Value payload;
  channel.subscribe_local("milan.plan",
                          [&](const transactions::Event& e) { payload = e.payload; });
  engine.start();
  ASSERT_EQ(payload.type(), Value::Type::kMap);
  EXPECT_EQ(payload.as_map().at("feasible"), Value{true});
  EXPECT_EQ(payload.as_map().at("active"), Value{1});
  EXPECT_EQ(payload.as_map().at("state"), Value{"on"});
}

}  // namespace
}  // namespace ndsm
