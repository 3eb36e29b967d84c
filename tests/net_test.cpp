#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "sim/simulator.hpp"

namespace ndsm::net {
namespace {

struct NetTest : ::testing::Test {
  NetTest() : sim(7), world(sim) {}
  sim::Simulator sim;
  World world;
};

TEST_F(NetTest, UnicastDeliversOnSharedWiredMedium) {
  const MediumId m = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({10, 0});
  world.attach(a, m);
  world.attach(b, m);

  Bytes got;
  NodeId from;
  world.set_handler(b, Proto::kApp, [&](const LinkFrame& f) {
    got = f.payload();
    from = f.src;
  });
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, to_bytes("ping")).is_ok());
  sim.run_all();
  EXPECT_EQ(to_string(got), "ping");
  EXPECT_EQ(from, a);
}

TEST_F(NetTest, NoSharedMediumIsUnreachable) {
  const MediumId m1 = world.add_medium(ethernet100());
  const MediumId m2 = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({0, 0});
  world.attach(a, m1);
  world.attach(b, m2);
  EXPECT_EQ(world.link_send(a, b, Proto::kApp, {}).code(), ErrorCode::kUnreachable);
}

TEST_F(NetTest, WirelessRangeLimitsDelivery) {
  const MediumId m = world.add_medium(wifi80211(/*range_m=*/50, /*loss=*/0));
  const NodeId a = world.add_node({0, 0});
  const NodeId near = world.add_node({40, 0});
  const NodeId far = world.add_node({60, 0});
  for (const NodeId n : {a, near, far}) world.attach(n, m);

  EXPECT_TRUE(world.in_link_range(a, near));
  EXPECT_FALSE(world.in_link_range(a, far));
  EXPECT_TRUE(world.link_send(a, near, Proto::kApp, {}).is_ok());
  EXPECT_EQ(world.link_send(a, far, Proto::kApp, {}).code(), ErrorCode::kUnreachable);
}

TEST_F(NetTest, LatencyMatchesBandwidthAndPropagation) {
  LinkSpec spec = ethernet100();  // 100 Mbps, 50us prop, 18B header
  const MediumId m = world.add_medium(spec);
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({0, 0});
  world.attach(a, m);
  world.attach(b, m);

  Time arrival = -1;
  world.set_handler(b, Proto::kApp, [&](const LinkFrame&) { arrival = sim.now(); });
  const std::size_t payload = 982;  // 982+18 = 1000 bytes = 8000 bits
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, Bytes(payload, 0)).is_ok());
  sim.run_all();
  // 8000 bits / 100 Mbps = 80us; + 50us propagation = 130us.
  EXPECT_EQ(arrival, 130);
}

TEST_F(NetTest, BroadcastReachesAllInRange) {
  const MediumId m = world.add_medium(wifi80211(50, 0));
  const NodeId src = world.add_node({0, 0});
  world.attach(src, m);
  int received = 0;
  for (int i = 0; i < 5; ++i) {
    const NodeId n = world.add_node({static_cast<double>(10 * (i + 1)), 0});
    world.attach(n, m);
    world.set_handler(n, Proto::kApp, [&](const LinkFrame& f) {
      EXPECT_EQ(f.dst, kBroadcast);
      received++;
    });
  }
  // Nodes at 10,20,30,40 are in range; node at 50 exactly on the boundary.
  ASSERT_TRUE(world.link_broadcast(src, Proto::kApp, to_bytes("hello")).is_ok());
  sim.run_all();
  EXPECT_EQ(received, 5);  // range is inclusive
}

TEST_F(NetTest, LossDropsSilently) {
  const MediumId m = world.add_medium(wifi80211(100, /*loss=*/1.0));
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({10, 0});
  world.attach(a, m);
  world.attach(b, m);
  int received = 0;
  world.set_handler(b, Proto::kApp, [&](const LinkFrame&) { received++; });
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(world.link_send(a, b, Proto::kApp, {}).is_ok());  // loss is silent
  }
  sim.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(world.stats().frames_lost, 20u);
}

TEST_F(NetTest, TxEnergyChargedOnWireless) {
  const MediumId m = world.add_medium(wifi80211(100, 0));
  const NodeId a = world.add_node({0, 0}, Battery{1.0});
  const NodeId b = world.add_node({50, 0}, Battery{1.0});
  world.attach(a, m);
  world.attach(b, m);
  const double before = world.battery(a).remaining();
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, Bytes(66, 0)).is_ok());
  sim.run_all();
  // (66+34 hdr)*8 = 800 bits at d=50.
  const double expected = world.energy_model().tx_cost(800, 50.0);
  EXPECT_NEAR(before - world.battery(a).remaining(), expected, 1e-12);
  // Receiver pays rx cost.
  EXPECT_NEAR(1.0 - world.battery(b).remaining(), world.energy_model().rx_cost(800), 1e-12);
}

TEST_F(NetTest, WiredSendsAreFree) {
  const MediumId m = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0}, Battery{1.0});
  const NodeId b = world.add_node({10, 0});
  world.attach(a, m);
  world.attach(b, m);
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, Bytes(100, 0)).is_ok());
  sim.run_all();
  EXPECT_DOUBLE_EQ(world.battery(a).remaining(), 1.0);
}

TEST_F(NetTest, BatteryExhaustionKillsNode) {
  const MediumId m = world.add_medium(wifi80211(100, 0));
  const NodeId a = world.add_node({0, 0}, Battery{1e-6});  // tiny battery
  const NodeId b = world.add_node({90, 0});
  world.attach(a, m);
  world.attach(b, m);
  NodeId died = NodeId::invalid();
  world.set_death_handler([&](NodeId n) { died = n; });
  // Repeated sends at long distance exhaust 1uJ quickly.
  Status last = Status::ok();
  for (int i = 0; i < 100 && world.alive(a); ++i) {
    last = world.link_send(a, b, Proto::kApp, Bytes(100, 0));
  }
  EXPECT_FALSE(world.alive(a));
  EXPECT_EQ(died, a);
  EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(world.link_send(a, b, Proto::kApp, {}).code(), ErrorCode::kResourceExhausted);
}

TEST_F(NetTest, DrainKillsAtZero) {
  const NodeId a = world.add_node({0, 0}, Battery{1.0});
  world.drain(a, 0.5);
  EXPECT_TRUE(world.alive(a));
  EXPECT_DOUBLE_EQ(world.battery(a).remaining(), 0.5);
  world.drain(a, 0.6);
  EXPECT_FALSE(world.alive(a));
}

TEST_F(NetTest, DeadNodesDoNotReceive) {
  const MediumId m = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({0, 0});
  world.attach(a, m);
  world.attach(b, m);
  int received = 0;
  world.set_handler(b, Proto::kApp, [&](const LinkFrame&) { received++; });
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, {}).is_ok());
  world.kill(b);  // dies while the frame is in flight
  sim.run_all();
  EXPECT_EQ(received, 0);
}

TEST_F(NetTest, NeighborsReflectRangeAndLiveness) {
  const MediumId m = world.add_medium(wifi80211(25, 0));
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({20, 0});
  const NodeId c = world.add_node({40, 0});
  for (const NodeId n : {a, b, c}) world.attach(n, m);
  EXPECT_EQ(world.neighbors(a), (std::vector<NodeId>{b}));
  EXPECT_EQ(world.neighbors(b), (std::vector<NodeId>{a, c}));
  world.kill(b);
  EXPECT_TRUE(world.neighbors(a).empty());
}

TEST_F(NetTest, LoopbackDelivery) {
  const NodeId a = world.add_node({0, 0});
  Bytes got;
  world.set_handler(a, Proto::kApp, [&](const LinkFrame& f) { got = f.payload(); });
  ASSERT_TRUE(world.link_send(a, a, Proto::kApp, to_bytes("self")).is_ok());
  sim.run_all();
  EXPECT_EQ(to_string(got), "self");
}

TEST_F(NetTest, MobilityMovesNodeOverTime) {
  const NodeId a = world.add_node({0, 0});
  world.move_linear(a, Vec2{100, 0}, /*speed=*/10.0);  // 10 m/s -> 10s to arrive
  sim.run_until(duration::seconds(5));
  EXPECT_NEAR(world.position(a).x, 50.0, 1.5);
  sim.run_until(duration::seconds(11));
  EXPECT_DOUBLE_EQ(world.position(a).x, 100.0);
  EXPECT_EQ(sim.pending(), 0u);  // motion stopped on arrival
}

TEST_F(NetTest, MobilityChangesConnectivity) {
  const MediumId m = world.add_medium(wifi80211(30, 0));
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({20, 0});
  world.attach(a, m);
  world.attach(b, m);
  EXPECT_TRUE(world.in_link_range(a, b));
  world.move_linear(b, Vec2{100, 0}, 10.0);
  sim.run_until(duration::seconds(9));
  EXPECT_FALSE(world.in_link_range(a, b));
}

TEST_F(NetTest, PreferWiredOverWireless) {
  const MediumId wired = world.add_medium(ethernet100());
  const MediumId wifi = world.add_medium(wifi80211(100, 0));
  const NodeId a = world.add_node({0, 0}, Battery{1.0});
  const NodeId b = world.add_node({10, 0});
  world.attach(a, wifi);
  world.attach(b, wifi);
  world.attach(a, wired);
  world.attach(b, wired);
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, Bytes(100, 0)).is_ok());
  sim.run_all();
  // Energy untouched because the wired segment was chosen.
  EXPECT_DOUBLE_EQ(world.battery(a).remaining(), 1.0);
}

TEST_F(NetTest, StatsAccumulateAndReset) {
  const MediumId m = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({0, 0});
  world.attach(a, m);
  world.attach(b, m);
  world.set_handler(b, Proto::kApp, [](const LinkFrame&) {});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(world.link_send(a, b, Proto::kApp, Bytes(10, 0)).is_ok());
  }
  sim.run_all();
  EXPECT_EQ(world.stats(a).frames_sent, 3u);
  EXPECT_EQ(world.stats(a).bytes_sent, 30u);
  EXPECT_EQ(world.stats(b).frames_received, 3u);
  EXPECT_EQ(world.stats().frames_delivered, 3u);
  world.reset_stats();
  EXPECT_EQ(world.stats(a).frames_sent, 0u);
  EXPECT_EQ(world.stats().frames_sent, 0u);
}

TEST_F(NetTest, ReviveRestoresDelivery) {
  const MediumId m = world.add_medium(ethernet100());
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({0, 0});
  world.attach(a, m);
  world.attach(b, m);
  int received = 0;
  world.set_handler(b, Proto::kApp, [&](const LinkFrame&) { received++; });
  world.kill(b);
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, {}).is_ok());
  sim.run_all();
  EXPECT_EQ(received, 0);
  world.revive(b);
  ASSERT_TRUE(world.link_send(a, b, Proto::kApp, {}).is_ok());
  sim.run_all();
  EXPECT_EQ(received, 1);
}

// Brute-force reachability reference: the cell index must agree with an
// all-pairs scan, for neighbors() and for the receivers of a loss-free
// broadcast, after a late attach, after a range change and under
// mobility. Besides random nodes (negative coordinates included), nodes
// on a 5 m lattice sit on cell edges at both ranges (35 and 50 m), each
// with a partner at exactly one of the ranges, in two clusters 1e7 m
// apart; two nodes are dead.
TEST(SpatialIndex, NeighborsMatchBruteForceUnderMobility) {
  sim::Simulator sim{11};
  World world{sim};
  const MediumId m = world.add_medium(wifi80211(/*range_m=*/35, /*loss=*/0));
  Rng rng{77};
  std::vector<NodeId> nodes;
  std::vector<std::pair<NodeId, NodeId>> heard;  // (sender, receiver)
  const auto add = [&](Vec2 pos) {
    const NodeId id = world.add_node(pos);
    world.set_handler(id, Proto::kApp,
                      [&heard, id](const LinkFrame& f) { heard.emplace_back(f.src, id); });
    nodes.push_back(id);
    return id;
  };
  for (int i = 0; i < 60; ++i) {
    world.attach(add({rng.uniform(-120, 120), rng.uniform(-120, 120)}), m);
  }
  const std::array<Vec2, 6> exact{{{35, 0}, {0, -35}, {-21, 28}, {50, 0}, {30, -40}, {-40, -30}}};
  for (const Vec2 origin : {Vec2{0, 0}, Vec2{1e7, -1e7}}) {
    for (std::size_t i = 0; i < 20; ++i) {
      const Vec2 lattice = origin + Vec2{5.0 * static_cast<double>(rng.uniform_int(-20, 20)),
                                         5.0 * static_cast<double>(rng.uniform_int(-20, 20))};
      world.attach(add(lattice), m);
      world.attach(add(lattice + exact[i % exact.size()]), m);
    }
  }
  world.kill(nodes[3]);
  world.kill(nodes[70]);

  const auto attached = [&](NodeId n) { return !world.media_of(n).empty(); };
  auto brute_neighbors = [&](NodeId a) {
    std::vector<NodeId> out;
    if (!attached(a)) return out;
    for (const NodeId b : nodes) {
      if (b == a || !world.alive(b) || !attached(b)) continue;
      if (distance(world.position(a), world.position(b)) <= world.medium_spec(m).range_m) {
        out.push_back(b);
      }
    }
    return out;  // already sorted: nodes is in id order
  };
  // Returns how many of the expected receptions are at exactly the range.
  const auto check = [&](const std::string& when) -> std::size_t {
    SCOPED_TRACE(when);
    std::vector<std::pair<NodeId, NodeId>> expected;
    std::size_t at_exact_range = 0;
    for (const NodeId a : nodes) {
      const std::vector<NodeId> brute = brute_neighbors(a);
      EXPECT_EQ(world.neighbors(a), brute);
      if (!world.alive(a) || !attached(a)) continue;
      for (const NodeId b : brute) {
        expected.emplace_back(a, b);
        if (distance(world.position(a), world.position(b)) == world.medium_spec(m).range_m) {
          at_exact_range++;
        }
      }
    }
    heard.clear();
    for (const NodeId a : nodes) {
      if (world.alive(a) && attached(a)) {
        EXPECT_TRUE(world.link_broadcast(a, Proto::kApp, {}).is_ok());
      }
    }
    sim.run_until(sim.now() + duration::millis(1));
    std::sort(heard.begin(), heard.end());
    EXPECT_EQ(heard, expected);  // expected is built in (sender, receiver) order
    return at_exact_range;
  };

  EXPECT_GT(check("first query"), 0u);
  // Attached after the index was first built, 5 m from a lattice node.
  world.attach(add(world.position(nodes[60]) + Vec2{3, 4}), m);
  check("late attach");
  world.set_medium_range(m, 50);
  EXPECT_GT(check("range change"), 0u);
  for (int round = 0; round < 5; ++round) {
    // Teleport a third of the nodes, walk another third across cell
    // boundaries.
    for (std::size_t i = 0; i < nodes.size(); i += 3) {
      world.set_position(nodes[i], {rng.uniform(-120, 120), rng.uniform(-120, 120)});
    }
    for (std::size_t i = 1; i < nodes.size(); i += 3) {
      world.move_linear(nodes[i], {rng.uniform(-120, 120), rng.uniform(-120, 120)}, 40.0);
    }
    sim.run_until(sim.now() + duration::seconds(1));
    check("round " + std::to_string(round));
  }
  EXPECT_GT(world.stats().grid_cells_scanned, 0u);
}

TEST(SpatialIndex, RangeChangeRebuildsGrid) {
  sim::Simulator sim{3};
  World world{sim};
  const MediumId m = world.add_medium(wifi80211(/*range_m=*/25, /*loss=*/0));
  const NodeId a = world.add_node({0, 0});
  const NodeId b = world.add_node({60, 0});
  world.attach(a, m);
  world.attach(b, m);
  EXPECT_TRUE(world.neighbors(a).empty());
  world.set_medium_range(m, 80);
  EXPECT_EQ(world.neighbors(a), (std::vector<NodeId>{b}));
  world.set_medium_range(m, 10);
  EXPECT_TRUE(world.neighbors(a).empty());
  // Mobility after a rebuild still tracks cells correctly.
  world.set_position(b, {5, 0});
  EXPECT_EQ(world.neighbors(a), (std::vector<NodeId>{b}));
}

TEST(SpatialIndex, BroadcastSharesOnePayloadBuffer) {
  sim::Simulator sim{5};
  World world{sim};
  const MediumId m = world.add_medium(wifi80211(100, 0));
  const NodeId src = world.add_node({0, 0});
  world.attach(src, m);
  std::vector<const Bytes*> seen;
  std::shared_ptr<const Bytes> retained;
  for (int i = 0; i < 4; ++i) {
    const NodeId n = world.add_node({static_cast<double>(10 * (i + 1)), 0});
    world.attach(n, m);
    world.set_handler(n, Proto::kApp, [&](const LinkFrame& f) {
      seen.push_back(&f.payload());
      retained = f.payload_buf;  // handlers may retain past the callback
    });
  }
  ASSERT_TRUE(world.link_broadcast(src, Proto::kApp, to_bytes("shared")).is_ok());
  sim.run_all();
  ASSERT_EQ(seen.size(), 4u);
  for (const Bytes* p : seen) EXPECT_EQ(p, seen[0]);  // one buffer, zero copies
  EXPECT_EQ(world.stats().payload_copies_avoided, 3u);
  EXPECT_EQ(to_string(*retained), "shared");
}

TEST(SpatialIndex, AuditVerifyGridThroughMobilityChurn) {
  // Teleports and range changes, each followed by a full index audit: the
  // index holds every member at its current position, in the cell that
  // position maps to, frozen for the current range (the verifier aborts
  // on any violation).
  sim::Simulator sim{11};
  World world{sim};
  Rng rng{17};
  const MediumId m = world.add_medium(wifi80211(/*range_m=*/30, /*loss=*/0));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(world.add_node({rng.uniform(-100, 100), rng.uniform(-100, 100)}));
    world.attach(nodes.back(), m);
  }
  world.audit_verify_grid(m);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < nodes.size(); i += 2) {
      world.set_position(nodes[i], {rng.uniform(-100, 100), rng.uniform(-100, 100)});
    }
    world.audit_verify_grid(m);
  }
  world.set_medium_range(m, 55);
  world.audit_verify_grid(m);
  world.set_medium_range(m, 12);
  world.audit_verify_grid(m);
}

// §3.6/ROADMAP determinism guarantee, at scale and under mobility: two
// same-seed runs of a 200-node mobile broadcast scenario must execute the
// identical event sequence, deliver in the identical order and agree on
// every WorldStats counter.
TEST(Determinism, TwinMobileBroadcastRuns) {
  struct Trace {
    std::uint64_t executed = 0;
    std::vector<std::tuple<std::uint64_t, std::uint64_t, Time>> deliveries;
    WorldStats stats;
    bool operator==(const Trace& o) const {
      return executed == o.executed && deliveries == o.deliveries &&
             stats.frames_sent == o.stats.frames_sent &&
             stats.frames_delivered == o.stats.frames_delivered &&
             stats.frames_lost == o.stats.frames_lost &&
             stats.bytes_on_wire == o.stats.bytes_on_wire &&
             stats.grid_cells_scanned == o.stats.grid_cells_scanned &&
             stats.grid_candidates == o.stats.grid_candidates &&
             stats.payload_copies_avoided == o.stats.payload_copies_avoided;
    }
  };
  auto run = [] {
    sim::Simulator sim{20240806};
    World world{sim};
    const MediumId m = world.add_medium(wifi80211(/*range_m=*/50, /*loss=*/0.1));
    Trace t;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 200; ++i) {
      const NodeId id = world.add_node(
          {sim.rng().uniform(0, 400), sim.rng().uniform(0, 400)}, Battery{5.0});
      world.attach(id, m);
      world.set_handler(id, Proto::kApp, [&t, id, &sim](const LinkFrame& f) {
        t.deliveries.emplace_back(id.value(), f.src.value(), sim.now());
      });
      world.move_linear(id, {sim.rng().uniform(0, 400), sim.rng().uniform(0, 400)},
                        sim.rng().uniform(1.0, 15.0));
      nodes.push_back(id);
    }
    // Every node broadcasts once, at an rng-staggered phase.
    for (const NodeId id : nodes) {
      const Time phase = duration::millis(sim.rng().uniform_int(0, 500));
      sim.schedule_at(phase, [&world, id] {
        world.link_broadcast(id, Proto::kApp, to_bytes("beacon"));
      });
    }
    sim.run_until(duration::seconds(3));
    t.executed = sim.executed_events();
    t.stats = world.stats();
    return t;
  };
  const Trace a = run();
  const Trace b = run();
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.deliveries.size(), 100u);       // scenario actually exercised fan-out
  EXPECT_GT(a.stats.frames_lost, 0u);         // loss draws happened, same in both
  EXPECT_GT(a.stats.payload_copies_avoided, 0u);
}

// A mobile run on two wireless media: staggered broadcasts while half the
// nodes move, a range change mid-run, a few nodes teleported 100 km away
// and a final neighbors() sweep. `loss` scales both media's flat loss
// (802.11 at 10%, Bluetooth at 5% when it is 1).
struct MobileRun {
  std::uint64_t digest = 0;
  std::uint64_t deliveries = kFnvBasis;  // (receiver, sender, time) of each
  std::uint64_t sweep = kFnvBasis;
  WorldStats stats;
};

MobileRun mobile_wireless_broadcast(double loss) {
  sim::Simulator sim{20261018};
  World world{sim};
  const MediumId wifi = world.add_medium(wifi80211(/*range_m=*/50, /*loss=*/0.1 * loss));
  const MediumId bt = world.add_medium(bluetooth(/*range_m=*/20, /*loss=*/0.05 * loss));
  MobileRun run;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 200; ++i) {
    const NodeId id =
        world.add_node({sim.rng().uniform(0, 400), sim.rng().uniform(0, 400)}, Battery{5.0});
    world.attach(id, wifi);
    if (i % 3 == 0) world.attach(id, bt);
    world.set_handler(id, Proto::kApp, [&run, &sim, id](const LinkFrame& f) {
      run.deliveries = fnv_fold(run.deliveries, id.value());
      run.deliveries = fnv_fold(run.deliveries, f.src.value());
      run.deliveries = fnv_fold(run.deliveries, static_cast<std::uint64_t>(sim.now()));
    });
    if (i % 2 == 0) {
      world.move_linear(id, {sim.rng().uniform(0, 400), sim.rng().uniform(0, 400)},
                        sim.rng().uniform(1.0, 15.0));
    }
    nodes.push_back(id);
  }
  for (int round = 0; round < 4; ++round) {
    for (const NodeId id : nodes) {
      const Time at = duration::seconds(round) + duration::millis(sim.rng().uniform_int(0, 900));
      sim.schedule_at(at, [&world, id] {
        (void)world.link_broadcast(id, Proto::kApp, to_bytes("beacon"));
      });
    }
  }
  sim.schedule_at(duration::millis(1500), [&world, wifi] { world.set_medium_range(wifi, 70); });
  sim.schedule_at(duration::millis(2500), [&world, &nodes] {
    for (std::size_t i = 1; i < nodes.size(); i += 40) {
      world.set_position(nodes[i], {100e3 + static_cast<double>(i), 100e3});
    }
  });
  sim.run_until(duration::seconds(4));

  for (const NodeId id : nodes) {
    for (const NodeId peer : world.neighbors(id)) run.sweep = fnv_fold(run.sweep, peer.value());
    run.sweep = fnv_fold(run.sweep, id.value());
  }
  run.digest = sim.digest();
  run.stats = world.stats();
  return run;
}

// Absolute pin of the mobile run, recorded while the World still kept a
// hash grid per medium, re-recorded when its loss draws became keyed by
// frame identity and again when the World's own events took keys and a
// broadcast began gathering its receivers at arrival time: every loss
// draw, delivery, event and WorldStats counter must survive a change of
// spatial index.
TEST(GoldenDigest, MobileWirelessBroadcast) {
  const MobileRun run = mobile_wireless_broadcast(1.0);
  EXPECT_EQ(run.digest, 0x340936be3cf71bf2ULL);
  EXPECT_EQ(run.deliveries, 0xa39ce6bce9cfb0cfULL);
  EXPECT_EQ(run.sweep, 0xe259bf5af8956fbcULL);
  const WorldStats& s = run.stats;
  EXPECT_EQ(s.frames_sent, 1068u);
  EXPECT_EQ(s.frames_delivered, 10107u);
  EXPECT_EQ(s.frames_lost, 1062u);
  EXPECT_EQ(s.bytes_on_wire, 36020u);
  EXPECT_EQ(s.grid_cells_scanned, 12015u);
  EXPECT_EQ(s.grid_candidates, 36127u);
  EXPECT_EQ(s.payload_copies_avoided, 9188u);
  EXPECT_EQ(s.fault_drops, 0u);
  EXPECT_EQ(s.fault_duplicates, 0u);
  EXPECT_EQ(s.fault_delays, 0u);
}

// The same run on lossless media: no draw decides anything, so this pin
// holds whatever the channel draws are keyed by. Re-recorded with the
// mobile pin above. Loss no longer adds or removes an event (a broadcast
// is one event per shard whatever it delivers), so both runs share an
// event digest.
TEST(GoldenDigest, LosslessMobileWirelessBroadcast) {
  const MobileRun run = mobile_wireless_broadcast(0.0);
  EXPECT_EQ(run.digest, 0x340936be3cf71bf2ULL);
  EXPECT_EQ(run.deliveries, 0xc9efc96de98b22d6ULL);
  EXPECT_EQ(run.sweep, 0xe259bf5af8956fbcULL);
  const WorldStats& s = run.stats;
  EXPECT_EQ(s.frames_sent, 1068u);
  EXPECT_EQ(s.frames_delivered, 11169u);
  EXPECT_EQ(s.frames_lost, 0u);
  EXPECT_EQ(s.bytes_on_wire, 36020u);
  EXPECT_EQ(s.grid_cells_scanned, 12015u);
  EXPECT_EQ(s.grid_candidates, 36127u);
  EXPECT_EQ(s.payload_copies_avoided, 10249u);
}

// Keyed draws: every channel decision is a function of the frame's
// identity (sender, the sender's transmission counter, receiver). A
// lossy, faulted lattice run twice, the second time with a chattering
// pair 100 km from everyone else, must take the same loss, drop, jitter
// and duplicate decision about every frame the two runs share.
using Arrivals =
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, std::vector<Time>>;

Arrivals keyed_run(bool chatter) {
  sim::Simulator sim{77};
  World world{sim};
  const MediumId m = world.add_medium(wifi80211(/*range_m=*/25, /*loss=*/0.1));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 36; ++i) {
    nodes.push_back(world.add_node({(i % 6) * 20.0, (i / 6) * 20.0}));
    world.attach(nodes.back(), m);
  }
  if (chatter) {
    for (int i = 0; i < 2; ++i) world.attach(world.add_node({1e5 + i * 10.0, 1e5}), m);
    for (Time t = 0; t < duration::millis(20); t += 50) {
      sim.schedule_at(t, [&world] {
        (void)world.link_broadcast(NodeId{36}, Proto::kApp, Bytes(8, 0));
      });
    }
  }
  FaultPlan faults{world, 0x77};
  faults.partition(duration::millis(3), {nodes.begin(), nodes.begin() + 12},
                   duration::millis(4));
  faults.burst_loss(m, BurstLossSpec{0.2, 0.3, 0.0, 0.7});
  faults.duplication(0.1, duration::micros(300));
  faults.jitter(0.3, duration::micros(400));

  // Every frame carries its sender's count of frames sent before it.
  Arrivals got;
  std::vector<std::uint8_t> sent(nodes.size(), 0);
  for (const NodeId id : nodes) {
    world.set_handler(id, Proto::kApp, [&got, &sim, id](const LinkFrame& f) {
      got[{f.src.value(), f.payload()[0], id.value()}].push_back(sim.now());
    });
    const NodeId peer = nodes[(id.value() + 1) % nodes.size()];
    for (int round = 0; round < 5; ++round) {
      const Time base = duration::millis(1 + 3 * round) + static_cast<Time>(id.value()) * 20;
      sim.schedule_at(base, [&world, &sent, id] {
        (void)world.link_broadcast(id, Proto::kApp, Bytes(1, sent[id.value()]++));
      });
      sim.schedule_at(base + 10, [&world, &sent, id, peer] {
        (void)world.link_send(id, peer, Proto::kApp, Bytes(1, sent[id.value()]++));
      });
    }
  }
  sim.run_until(duration::millis(30));
  return got;
}

TEST(KeyedDraws, AnExtraSenderRedrawsNothingElse) {
  const Arrivals quiet = keyed_run(false);
  const Arrivals chatty = keyed_run(true);
  EXPECT_EQ(quiet, chatty);
  std::size_t duplicated = 0;
  for (const auto& [frame, times] : quiet) duplicated += times.size() > 1 ? 1 : 0;
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(quiet.size(), 300u);
}

TEST(LossModel, BitErrorRateScalesWithFrameLength) {
  LinkSpec spec;
  spec.bit_error_rate = 1e-4;
  const double short_frame = frame_loss_probability(spec, 32);
  const double long_frame = frame_loss_probability(spec, 1500);
  EXPECT_GT(long_frame, short_frame);
  EXPECT_NEAR(short_frame, 1.0 - std::pow(1.0 - 1e-4, 32 * 8), 1e-12);
  EXPECT_GT(long_frame, 0.69);  // 12000 bits at 1e-4 -> ~70% loss
}

TEST(LossModel, FlatAndBerCombine) {
  LinkSpec spec;
  spec.loss_probability = 0.5;
  spec.bit_error_rate = 0.0;
  EXPECT_DOUBLE_EQ(frame_loss_probability(spec, 100), 0.5);
  spec.bit_error_rate = 1e-3;
  const double combined = frame_loss_probability(spec, 100);
  EXPECT_GT(combined, 0.5);
  EXPECT_LT(combined, 1.0);
}

TEST(EnergyModel, CostFormulas) {
  const EnergyModel model;
  EXPECT_DOUBLE_EQ(model.rx_cost(1000), 1000 * 50e-9);
  EXPECT_DOUBLE_EQ(model.tx_cost(1000, 0), 1000 * 50e-9);
  EXPECT_DOUBLE_EQ(model.tx_cost(1000, 100),
                   1000 * (50e-9 + 100e-12 * 100 * 100));
  // Transmission cost grows quadratically in distance.
  EXPECT_GT(model.tx_cost(1000, 200) - model.tx_cost(1000, 100),
            model.tx_cost(1000, 100) - model.tx_cost(1000, 0));
}

TEST(BatteryModel, FractionAndDepletion) {
  Battery b{10.0};
  EXPECT_TRUE(b.finite());
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
  EXPECT_TRUE(b.consume(4.0));
  EXPECT_DOUBLE_EQ(b.fraction(), 0.6);
  EXPECT_FALSE(b.consume(7.0));
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining(), 0.0);

  Battery mains = Battery::mains();
  EXPECT_FALSE(mains.finite());
  EXPECT_TRUE(mains.consume(1e9));
  EXPECT_DOUBLE_EQ(mains.fraction(), 1.0);
}

}  // namespace
}  // namespace ndsm::net
