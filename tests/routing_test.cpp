#include <gtest/gtest.h>

#include "net/faults.hpp"
#include "routing/distance_vector.hpp"
#include "routing/flooding.hpp"
#include "routing/geographic.hpp"
#include "routing/global.hpp"
#include "routing/location.hpp"
#include "test_helpers.hpp"

namespace ndsm::routing {
namespace {

using testing::WirelessGrid;

TEST(RoutingHeader, CodecRoundTrip) {
  RoutingHeader h;
  h.kind = RoutingKind::kData;
  h.origin = NodeId{3};
  h.dst = NodeId{9};
  h.seq = 12345;
  h.ttl = 7;
  h.upper = Proto::kDiscovery;
  const Bytes payload = to_bytes("payload");
  const Bytes frame = encode_routing(h, payload);

  RoutingHeader out;
  Bytes out_payload;
  ASSERT_TRUE(decode_routing(frame, out, out_payload));
  EXPECT_EQ(out.kind, h.kind);
  EXPECT_EQ(out.origin, h.origin);
  EXPECT_EQ(out.dst, h.dst);
  EXPECT_EQ(out.seq, h.seq);
  EXPECT_EQ(out.ttl, h.ttl);
  EXPECT_EQ(out.upper, h.upper);
  EXPECT_EQ(out_payload, payload);
}

TEST(RoutingHeader, CorruptFrameRejected) {
  RoutingHeader h;
  Bytes payload;
  EXPECT_FALSE(decode_routing(Bytes{1, 2, 3}, h, payload));
  EXPECT_FALSE(decode_routing(Bytes{}, h, payload));
}

TEST(Flooding, MultiHopDelivery) {
  WirelessGrid grid{9};  // 3x3, range covers one hop
  grid.with_routers<FloodingRouter>();
  Bytes got;
  NodeId origin;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId o, const Bytes& b) {
    got = b;
    origin = o;
  });
  // Corner to opposite corner: needs >= 4 hops.
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("across")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "across");
  EXPECT_EQ(origin, grid.nodes[0]);
}

TEST(Flooding, FloodReachesEveryone) {
  WirelessGrid grid{16};
  grid.with_routers<FloodingRouter>();
  int received = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&](NodeId, const Bytes&) { received++; });
  }
  ASSERT_TRUE(grid.router(5).flood(Proto::kApp, to_bytes("all")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(received, 16);  // including the originator
}

TEST(Flooding, DuplicatesSuppressed) {
  WirelessGrid grid{9};
  grid.with_routers<FloodingRouter>();
  int deliveries = 0;
  grid.router(4).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { deliveries++; });
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(deliveries, 1);  // many paths, one delivery
}

TEST(Flooding, TtlLimitsPropagation) {
  // A 1x9 line: TTL 2 reaches only nodes 1..3 hops... TTL counts rebroadcasts.
  WirelessGrid grid{9, 20.0};
  // Re-position into a line.
  for (std::size_t i = 0; i < 9; ++i) {
    grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
  }
  grid.with_routers<FloodingRouter>();
  std::vector<int> got(9, 0);
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&got, i](NodeId, const Bytes&) { got[i]++; });
  }
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("x"), /*ttl=*/2).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);  // delivered by node 2's last rebroadcast (ttl hit 0)
  EXPECT_EQ(got[4], 0);
}

TEST(Flooding, UnicastStopsAtTarget) {
  WirelessGrid grid{9};
  for (std::size_t i = 0; i < 9; ++i) {
    grid.world.set_position(grid.nodes[i], Vec2{static_cast<double>(i) * 20.0, 0});
  }
  grid.with_routers<FloodingRouter>();
  int target_got = 0;
  int beyond_got = 0;
  grid.router(3).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { target_got++; });
  grid.router(5).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { beyond_got++; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[3], Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(target_got, 1);
  EXPECT_EQ(beyond_got, 0);  // flood not forwarded past its unicast target
}

// Every node's router stats, summed.
RouterStats grid_totals(WirelessGrid& grid) {
  RouterStats t;
  for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
    const RouterStats& s = grid.router(i).stats();
    t.data_sent += s.data_sent;
    t.data_forwarded += s.data_forwarded;
    t.data_delivered += s.data_delivered;
    t.control_packets += s.control_packets;
    t.control_bytes += s.control_bytes;
    t.drops += s.drops;
  }
  return t;
}

TEST(Flooding, OneHopSendIsOneDirectFrame) {
  WirelessGrid grid{9};
  grid.with_routers<FloodingRouter>();
  std::vector<int> got(9, 0);
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&got, i](NodeId, const Bytes&) { got[i]++; });
  }
  const std::uint64_t frames = grid.world.stats().frames_sent;
  ASSERT_TRUE(grid.router(0).send(grid.nodes[1], Proto::kApp, to_bytes("next door")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(grid.world.stats().frames_sent, frames + 1);
  const RouterStats t = grid_totals(grid);
  EXPECT_EQ(t.data_sent, 1u);
  EXPECT_EQ(t.data_forwarded, 0u);
  EXPECT_EQ(t.drops, 0u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(Flooding, TwoHopSendStillFloods) {
  WirelessGrid grid{9};
  grid.with_routers<FloodingRouter>();
  int target_got = 0;
  grid.router(2).set_delivery_handler(Proto::kApp,
                                      [&](NodeId, const Bytes&) { target_got++; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[2], Proto::kApp, to_bytes("two hops")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(target_got, 1);
  const RouterStats t = grid_totals(grid);
  EXPECT_EQ(t.data_sent, 1u);  // the refused direct attempt counts nothing
  EXPECT_EQ(t.drops, 0u);
  EXPECT_GT(t.data_forwarded, 0u);
}

// A restarted FloodingRouter numbers its floods from 1 again, and peers
// still hold the old incarnation's numbers, so its floods read as seen.
// A send to a one-hop peer is a direct data frame, which no flood window
// filters: it arrives after the restart.
TEST(Flooding, OneHopSendsSurviveARestart) {
  WirelessGrid grid{4};  // 2x2: node 1 is one hop from node 0
  grid.with_routers<FloodingRouter>();
  int got = 0;
  grid.router(1).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes&) { got++; });
  const auto send_five = [&] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(grid.router(0).send(grid.nodes[1], Proto::kApp, to_bytes("x")).is_ok());
    }
  };
  grid.sim.run_until(duration::seconds(3));
  send_five();
  grid.sim.run_until(duration::seconds(4));
  ASSERT_EQ(got, 5);
  grid.runtime(0).crash();
  grid.sim.run_until(duration::seconds(5));
  grid.runtime(0).restart();
  grid.sim.run_until(duration::seconds(8));
  send_five();
  grid.sim.run_until(duration::seconds(9));
  EXPECT_EQ(got, 10);
}

// Data frames and floods are numbered apart, so an origin that sends data
// between its floods leaves no gap in any receiver's flood window: every
// window drains back to its floor, for all four routers.
TEST(Router, DataBetweenFloodsLeavesNoHeldFloodIds) {
  const std::vector<std::pair<const char*, std::function<void(WirelessGrid&)>>> routers{
      {"flooding", [](WirelessGrid& g) { g.with_routers<FloodingRouter>(); }},
      {"distance vector",
       [](WirelessGrid& g) { g.with_routers<DistanceVectorRouter>(duration::seconds(1)); }},
      {"global",
       [](WirelessGrid& g) {
         g.with_routers<GlobalRouter>(
             std::make_shared<GlobalRoutingTable>(g.world, Metric::kHopCount));
       }},
      {"geographic", [](WirelessGrid& g) { g.with_routers<GeoRouter>(duration::seconds(1)); }},
  };
  constexpr int kRounds = 10;
  for (const auto& [name, install] : routers) {
    SCOPED_TRACE(name);
    WirelessGrid grid{9};
    install(grid);
    std::vector<int> floods(9, 0);
    for (std::size_t i = 0; i < 9; ++i) {
      grid.router(i).set_delivery_handler(Proto::kApp, [&floods, i](NodeId, const Bytes& b) {
        if (to_string(b) == "flood") floods[i]++;
      });
    }
    grid.sim.run_until(duration::seconds(3));  // beacons settle
    for (int k = 0; k < kRounds; ++k) {
      ASSERT_TRUE(grid.router(0).send(grid.nodes[1], Proto::kApp, to_bytes("near")).is_ok());
      ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("far")).is_ok());
      ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("flood")).is_ok());
      grid.sim.run_until(grid.sim.now() + duration::millis(200));
    }
    for (std::size_t i = 1; i < 9; ++i) {
      EXPECT_EQ(floods[i], kRounds) << "node " << i;
      EXPECT_EQ(grid.router(i).flood_ids_held(grid.nodes[0]), 0u) << "node " << i;
    }
  }
}

struct DvGrid : WirelessGrid {
  explicit DvGrid(std::size_t n) : WirelessGrid(n) {
    with_routers<DistanceVectorRouter>(duration::seconds(1));
  }
  DistanceVectorRouter& dv(std::size_t i) {
    return static_cast<DistanceVectorRouter&>(router(i));
  }
};

TEST(DistanceVector, ConvergesToAllDestinations) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_LT(grid.dv(i).route_metric(grid.nodes[j]), DistanceVectorRouter::kInfinity)
          << i << "->" << j;
    }
  }
}

TEST(DistanceVector, MetricsAreShortestHopCounts) {
  DvGrid grid{9};  // 3x3 lattice, spacing 20, range 30 (diagonals out of range)
  grid.sim.run_until(duration::seconds(10));
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[0]), 0);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[1]), 1);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[4]), 2);  // corner to centre
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[8]), 4);  // corner to corner
}

TEST(DistanceVector, DataFollowsRoutes) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("dv")).is_ok());
  grid.sim.run_until(duration::seconds(11));
  EXPECT_EQ(to_string(got), "dv");
}

TEST(DistanceVector, RoutesExpireAfterDeath) {
  DvGrid grid{4};  // 2x2
  grid.sim.run_until(duration::seconds(10));
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[3]), DistanceVectorRouter::kInfinity);
  grid.world.kill(grid.nodes[3]);
  grid.sim.run_until(duration::seconds(20));
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[3]), DistanceVectorRouter::kInfinity);
}

TEST(DistanceVector, ReroutesAroundFailure) {
  DvGrid grid{9};
  grid.sim.run_until(duration::seconds(10));
  // Kill the centre; corner-to-corner still works around the edge.
  grid.world.kill(grid.nodes[4]);
  grid.sim.run_until(duration::seconds(25));  // let tables re-converge
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("detour")).is_ok());
  grid.sim.run_until(duration::seconds(26));
  EXPECT_EQ(to_string(got), "detour");
}

TEST(DistanceVector, FloodWorksWithoutConvergence) {
  DvGrid grid{9};
  int received = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp,
                                        [&](NodeId, const Bytes&) { received++; });
  }
  // Flood immediately at t=0, before any DV updates.
  ASSERT_TRUE(grid.router(0).flood(Proto::kApp, to_bytes("early")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(received, 9);
}

struct GlobalGrid : WirelessGrid {
  explicit GlobalGrid(std::size_t n, Metric metric = Metric::kHopCount)
      : WirelessGrid(n, 20.0, 42, 10.0) {
    table = std::make_shared<GlobalRoutingTable>(world, metric);
    with_routers<GlobalRouter>(table);
  }
  std::shared_ptr<GlobalRoutingTable> table;
};

TEST(GlobalRouting, ImmediateMultiHopDelivery) {
  GlobalGrid grid{16};
  Bytes got;
  grid.router(15).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[15], Proto::kApp, to_bytes("go")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "go");
}

TEST(GlobalRouting, HopCountPathCosts) {
  GlobalGrid grid{9};
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[0]), 0.0);
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[1]), 1.0);
  EXPECT_DOUBLE_EQ(grid.table->path_cost(grid.nodes[0], grid.nodes[8]), 4.0);
}

TEST(GlobalRouting, UnreachableReported) {
  GlobalGrid grid{4};
  // Add an isolated node far away.
  const NodeId isolated = grid.world.add_node({10000, 10000});
  grid.world.attach(isolated, grid.medium);
  EXPECT_FALSE(grid.table->reachable(grid.nodes[0], isolated));
  EXPECT_EQ(grid.router(0).send(isolated, Proto::kApp, {}).code(), ErrorCode::kUnreachable);
}

TEST(GlobalRouting, EnergyAwareAvoidsLowBatteryRelay) {
  // Line topology a - r1 - b and a - r2 - b with r1 nearly dead: energy
  // metric must route through r2.
  sim::Simulator sim{1};
  net::World world{sim};
  const MediumId m = world.add_medium(net::wifi80211(25, 0));
  const NodeId a = world.add_node({0, 0}, net::Battery{10});
  const NodeId r1 = world.add_node({20, 10}, net::Battery{10});
  const NodeId r2 = world.add_node({20, -10}, net::Battery{10});
  const NodeId b = world.add_node({40, 0}, net::Battery{10});
  for (const NodeId n : {a, r1, r2, b}) world.attach(n, m);
  // Drain r1 to 5% without killing it.
  world.drain(r1, 9.5);

  auto table = std::make_shared<GlobalRoutingTable>(world, Metric::kEnergyAware);
  EXPECT_EQ(table->next_hop(a, b), r2);
  table->set_metric(Metric::kHopCount);
  // Hop count is indifferent (both 2 hops) — either relay acceptable.
  const NodeId hop = table->next_hop(a, b);
  EXPECT_TRUE(hop == r1 || hop == r2);
}

TEST(GlobalRouting, InvalidateRecomputesAfterDeath) {
  GlobalGrid grid{9};
  const NodeId via = grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_TRUE(via.valid());
  grid.world.kill(via);
  grid.table->invalidate();
  const NodeId via2 = grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_TRUE(via2.valid());
  EXPECT_NE(via2, via);
}

TEST(GlobalRouting, CachesUntilRefreshInterval) {
  GlobalGrid grid{9};
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  const auto before = grid.table->recomputations();
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[5]);
  (void)grid.table->path_cost(grid.nodes[0], grid.nodes[3]);
  EXPECT_EQ(grid.table->recomputations(), before);  // same source, cached
  grid.sim.run_until(duration::seconds(60));        // past refresh interval
  (void)grid.table->next_hop(grid.nodes[0], grid.nodes[8]);
  EXPECT_GT(grid.table->recomputations(), before);
}

TEST(LocationService, BeaconsPopulateCaches) {
  GlobalGrid grid{9};
  std::vector<std::unique_ptr<LocationService>> locs;
  for (std::size_t i = 0; i < 9; ++i) {
    locs.push_back(std::make_unique<LocationService>(grid.router(i), duration::seconds(2)));
  }
  grid.sim.run_until(duration::seconds(5));
  // Everyone knows everyone.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(locs[i]->known_count(), 9u) << i;
    const auto pos = locs[i]->lookup(grid.nodes[8]);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(*pos, grid.world.position(grid.nodes[8]));
  }
}

TEST(LocationService, MaxAgeFiltersStaleEntries) {
  GlobalGrid grid{4};
  LocationService loc0{grid.router(0), duration::seconds(2)};
  LocationService loc1{grid.router(1), duration::seconds(2)};
  grid.sim.run_until(duration::seconds(3));
  ASSERT_TRUE(loc0.lookup(grid.nodes[1]).has_value());
  grid.world.kill(grid.nodes[1]);  // no more beacons
  grid.sim.run_until(duration::seconds(30));
  EXPECT_FALSE(loc0.lookup(grid.nodes[1], duration::seconds(5)).has_value());
  EXPECT_TRUE(loc0.lookup(grid.nodes[1]).has_value());  // unlimited age still returns it
}

TEST(LocationService, TracksMovingNode) {
  GlobalGrid grid{4};
  LocationService loc0{grid.router(0), duration::seconds(1)};
  LocationService loc1{grid.router(1), duration::seconds(1)};
  grid.sim.run_until(duration::seconds(2));
  grid.world.move_linear(grid.nodes[1], Vec2{30, 0}, 5.0);
  grid.sim.run_until(duration::seconds(10));
  const auto pos = loc0.lookup(grid.nodes[1], duration::seconds(2));
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, 30.0, 6.0);  // within one beacon period of truth
}

TEST(RouterStats, CountsSentAndForwarded) {
  GlobalGrid grid{9};
  grid.router(8).set_delivery_handler(Proto::kApp, [](NodeId, const Bytes&) {});
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("x")).is_ok());
  grid.sim.run_until(duration::seconds(1));
  EXPECT_EQ(grid.router(0).stats().data_sent, 1u);
  EXPECT_EQ(grid.router(8).stats().data_delivered, 1u);
  // 4-hop path => 3 intermediate forwards in total.
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < 9; ++i) forwards += grid.router(i).stats().data_forwarded;
  EXPECT_EQ(forwards, 3u);
}

// --- flood TTL expiry ---------------------------------------------------------
// A flood that arrives with its TTL spent is delivered where it lands and
// then dropped, and the drop is counted (RouterStats::drops is
// "undeliverable / TTL expired") by every router, not only some of them.
template <class Grid>
void expect_spent_flood_counted(Grid& grid) {
  int delivered = 0;
  for (std::size_t i = 0; i < grid.nodes.size(); ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes&) { delivered++; });
  }
  const auto total = [&](auto field) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < grid.nodes.size(); ++i) sum += grid.router(i).stats().*field;
    return sum;
  };
  const std::uint64_t drops = total(&RouterStats::drops);
  const std::uint64_t forwarded = total(&RouterStats::data_forwarded);
  // The centre of the 4-connected 3x3 lattice floods with TTL 0: it and
  // its four neighbours deliver, and each neighbour drops the frame.
  ASSERT_TRUE(grid.router(4).flood(Proto::kApp, to_bytes("spent"), 0).is_ok());
  grid.sim.run_until(grid.sim.now() + duration::seconds(1));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(total(&RouterStats::drops) - drops, 4u);
  EXPECT_EQ(total(&RouterStats::data_forwarded), forwarded);
}

TEST(FloodTtl, FloodingCountsExpiredFloods) {
  WirelessGrid grid{9};
  grid.with_routers<FloodingRouter>();
  expect_spent_flood_counted(grid);
}

TEST(FloodTtl, DistanceVectorCountsExpiredFloods) {
  DvGrid grid{9};
  expect_spent_flood_counted(grid);
}

TEST(FloodTtl, GeographicCountsExpiredFloods) {
  WirelessGrid grid{9};
  grid.with_routers<GeoRouter>(duration::seconds(1));
  expect_spent_flood_counted(grid);
}

TEST(FloodTtl, GlobalCountsExpiredFloods) {
  GlobalGrid grid{9};
  expect_spent_flood_counted(grid);
}

// --- partition/heal coverage (driven by the net::FaultPlan layer) -----------

TEST(DistanceVector, PartitionExpiresRoutesAndHealReconverges) {
  DvGrid grid{9};
  net::FaultPlan faults{grid.world};
  grid.sim.run_until(duration::seconds(10));
  ASSERT_LT(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);

  // Split off the left column for 15s, starting now. Route TTL at 1s
  // updates is 3.5s, so cross-partition routes age out well within it.
  faults.partition(0, {grid.nodes[0], grid.nodes[3], grid.nodes[6]}, duration::seconds(15));
  grid.sim.run_until(duration::seconds(20));
  EXPECT_GT(grid.world.stats().partition_drops, 0u);
  EXPECT_EQ(faults.active_partitions(), 1u);
  EXPECT_EQ(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[6]), DistanceVectorRouter::kInfinity)
      << "routes inside the island must survive the partition";

  // Undeliverable sends during the outage surface in routing.* stats.
  const std::uint64_t drops_before = grid.dv(0).stats().drops;
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("void")).is_ok());
  grid.sim.run_until(duration::seconds(21));
  EXPECT_GT(grid.dv(0).stats().drops, drops_before);

  // Heal fired at t=25s; tables re-converge and data flows again.
  grid.sim.run_until(duration::seconds(40));
  EXPECT_EQ(faults.active_partitions(), 0u);
  EXPECT_EQ(faults.stats().partitions_healed, 1u);
  EXPECT_LT(grid.dv(0).route_metric(grid.nodes[8]), DistanceVectorRouter::kInfinity);
  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("healed")).is_ok());
  grid.sim.run_until(duration::seconds(41));
  EXPECT_EQ(to_string(got), "healed");
}

TEST(GeoRouting, PartitionBlocksGreedyForwardingUntilHeal) {
  WirelessGrid grid{9};
  grid.with_routers<GeoRouter>(duration::seconds(1));
  net::FaultPlan faults{grid.world};
  grid.sim.run_until(duration::seconds(3));  // hello beacons populate tables

  Bytes got;
  grid.router(8).set_delivery_handler(Proto::kApp, [&](NodeId, const Bytes& b) { got = b; });

  // Island the far corner's row for 10s: hellos across the cut stop, the
  // sender's candidates toward node 8 go stale, and greedy forwarding has
  // no live next hop past the cut.
  faults.partition(0, {grid.nodes[6], grid.nodes[7], grid.nodes[8]}, duration::seconds(10));
  grid.sim.run_until(duration::seconds(8));  // stale out cross-cut neighbors (ttl 3.3s)
  const std::uint64_t drops_before =
      grid.router(3).stats().drops + grid.router(4).stats().drops +
      grid.router(5).stats().drops + grid.router(0).stats().drops;
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("cut")).is_ok());
  grid.sim.run_until(duration::seconds(9));
  EXPECT_TRUE(got.empty()) << "frame crossed an active partition";
  const std::uint64_t drops_after =
      grid.router(3).stats().drops + grid.router(4).stats().drops +
      grid.router(5).stats().drops + grid.router(0).stats().drops;
  EXPECT_GT(drops_after, drops_before)
      << "the outage must surface in routing.* drop counters";
  EXPECT_GT(grid.world.stats().partition_drops, 0u);

  // After the heal, beacons re-cross the cut and delivery resumes.
  grid.sim.run_until(duration::seconds(18));  // heal at 10s + re-beacon slack
  ASSERT_TRUE(grid.router(0).send(grid.nodes[8], Proto::kApp, to_bytes("rejoined")).is_ok());
  grid.sim.run_until(duration::seconds(20));
  EXPECT_EQ(to_string(got), "rejoined");
  EXPECT_EQ(faults.stats().partitions_healed, 1u);
}

// --- golden pins ------------------------------------------------------------

// One flood-and-relay run: a 4x4 wireless lattice (flat 2% loss, no
// bit-error term, lattice positions: no libm-dependent input) whose fault
// plan duplicates and jitters frames. Every 400 ms each node floods (every
// other node with a TTL of 3, so floods also expire) and sends one data
// packet seven nodes on. Returns the event-order digest and the routers'
// summed stats.
struct FloodRun {
  std::uint64_t digest = 0;
  RouterStats totals;
};

FloodRun flood_and_relay_run(const std::function<void(WirelessGrid&)>& install) {
  WirelessGrid grid{16, 20.0, 7, 1e9, 0.02};
  install(grid);
  net::FaultPlan faults{grid.world};
  faults.duplication(0.2, duration::millis(30));
  faults.jitter(0.2, duration::millis(30));
  const std::size_t n = grid.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    grid.router(i).set_delivery_handler(Proto::kApp, [](NodeId, const Bytes&) {});
  }
  sim::PeriodicTimer traffic{grid.sim, duration::millis(400), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      Router& r = grid.router(i);
      const int ttl = i % 2 == 0 ? Router::kDefaultTtl : 3;
      (void)r.flood(Proto::kApp, Bytes(24, static_cast<std::uint8_t>(i)), ttl);
      (void)r.send(grid.nodes[(i + 7) % n], Proto::kApp, Bytes(48, static_cast<std::uint8_t>(i)));
    }
  }};
  traffic.start();
  grid.sim.run_until(duration::seconds(8));
  return FloodRun{grid.sim.digest(), grid_totals(grid)};
}

void expect_pinned(const FloodRun& run, std::uint64_t digest, const RouterStats& totals) {
  EXPECT_EQ(run.digest, digest);
  EXPECT_EQ(run.totals.data_sent, totals.data_sent);
  EXPECT_EQ(run.totals.data_forwarded, totals.data_forwarded);
  EXPECT_EQ(run.totals.data_delivered, totals.data_delivered);
  EXPECT_EQ(run.totals.control_packets, totals.control_packets);
  EXPECT_EQ(run.totals.control_bytes, totals.control_bytes);
  EXPECT_EQ(run.totals.drops, totals.drops);
}

// Absolute digests and router totals of the flood-and-relay run, one case
// per router, recorded before the routers' origination, flooding and
// duplicate suppression moved into routing::Router, re-recorded when the
// World's loss and fault draws became keyed by frame identity, and again
// when the World's own events took shard-invariant keys.
TEST(GoldenDigest, RouterFloodAndRelay) {
  {
    SCOPED_TRACE("flooding");
    expect_pinned(flood_and_relay_run([](WirelessGrid& g) { g.with_routers<FloodingRouter>(); }),
                  0x1b2ede7b4852f0f1ULL, RouterStats{640, 8026, 4900, 0, 0, 502});
  }
  {
    SCOPED_TRACE("distance vector");
    expect_pinned(flood_and_relay_run([](WirelessGrid& g) {
                    g.with_routers<DistanceVectorRouter>(duration::seconds(1));
                  }),
                  0x6702604f025765bcULL, RouterStats{640, 4702, 5095, 128, 23294, 520});
  }
  {
    SCOPED_TRACE("global");
    expect_pinned(flood_and_relay_run([](WirelessGrid& g) {
                    g.with_routers<GlobalRouter>(
                        std::make_shared<GlobalRoutingTable>(g.world, Metric::kHopCount));
                  }),
                  0xe8a4d1d52ab0180cULL, RouterStats{640, 4763, 5117, 0, 0, 501});
  }
  {
    SCOPED_TRACE("geographic");
    expect_pinned(flood_and_relay_run([](WirelessGrid& g) {
                    g.with_routers<GeoRouter>(duration::seconds(1));
                  }),
                  0x98c89dd51780bd0aULL, RouterStats{640, 4768, 5144, 128, 2048, 500});
  }
}

}  // namespace
}  // namespace ndsm::routing
