#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "net/faults.hpp"
#include "test_helpers.hpp"
#include "transactions/rpc.hpp"

namespace ndsm::node {
namespace {

using testing::Lan;
using testing::WirelessGrid;

// --- basic lifecycle --------------------------------------------------------

TEST(NodeRuntime, BringsUpFullStack) {
  Lan lan{2};
  Runtime& rt = lan.runtime(0);
  EXPECT_TRUE(rt.up());
  EXPECT_NE(rt.router_ptr(), nullptr);
  EXPECT_NE(rt.transport_ptr(), nullptr);
  EXPECT_TRUE(lan.world.alive(rt.id()));
}

TEST(NodeRuntime, CrashTearsDownAndRestartRebuilds) {
  Lan lan{2};
  Runtime& rt = lan.runtime(1);
  rt.crash();
  EXPECT_FALSE(rt.up());
  EXPECT_EQ(rt.router_ptr(), nullptr);
  EXPECT_EQ(rt.transport_ptr(), nullptr);
  EXPECT_FALSE(lan.world.alive(rt.id()));
  EXPECT_EQ(rt.stats().crashes, 1u);

  rt.restart();
  EXPECT_TRUE(rt.up());
  EXPECT_NE(rt.transport_ptr(), nullptr);
  EXPECT_TRUE(lan.world.alive(rt.id()));
  EXPECT_EQ(rt.stats().restarts, 1u);

  // The rebuilt stack moves data.
  Bytes got;
  rt.transport().set_receiver(transport::ports::kApp,
                              [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(
      lan.transport(0).send(rt.id(), transport::ports::kApp, to_bytes("back")).is_ok());
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "back");
}

TEST(NodeRuntime, CrashAndRestartAreIdempotent) {
  Lan lan{1};
  Runtime& rt = lan.runtime(0);
  rt.restart();  // no-op while up
  EXPECT_EQ(rt.stats().restarts, 0u);
  rt.crash();
  rt.crash();  // no-op while down
  EXPECT_EQ(rt.stats().crashes, 1u);
  rt.restart();
  EXPECT_TRUE(rt.up());
}

TEST(NodeRuntime, SendWhileCrashedFailsCleanly) {
  Lan lan{2};
  lan.runtime(1).crash();
  Status result = Status::ok();
  lan.transport(0).send(lan.nodes[1], transport::ports::kApp, to_bytes("void"),
                        [&](Status s) { result = s; });
  lan.sim.run_until(duration::minutes(2));
  EXPECT_FALSE(result.is_ok());
}

// --- the service container --------------------------------------------------

TEST(NodeRuntime, ServicesRebuiltByRestartInOrder) {
  Lan lan{2};
  Runtime& rt = lan.runtime(0);
  std::vector<std::string> started;
  rt.add_service<transactions::RpcEndpoint>("rpc", [&](Runtime& r) {
    started.push_back("rpc");
    return std::make_unique<transactions::RpcEndpoint>(r.transport());
  });
  rt.add_service<discovery::CentralizedDiscovery>("disco", [&](Runtime& r) {
    started.push_back("disco");
    return std::make_unique<discovery::CentralizedDiscovery>(
        r.transport(), std::vector<NodeId>{r.id()});
  });
  ASSERT_EQ(started, (std::vector<std::string>{"rpc", "disco"}));
  EXPECT_EQ(rt.service_count(), 2u);
  EXPECT_NE(rt.service<transactions::RpcEndpoint>("rpc"), nullptr);

  rt.crash();
  EXPECT_EQ(rt.service<transactions::RpcEndpoint>("rpc"), nullptr);  // instance gone
  EXPECT_EQ(rt.service_count(), 2u);                                 // recipe kept

  rt.restart();
  ASSERT_EQ(started.size(), 4u);  // both factories ran again...
  EXPECT_EQ(started[2], "rpc");   // ...in registration order
  EXPECT_EQ(started[3], "disco");
  EXPECT_NE(rt.service<transactions::RpcEndpoint>("rpc"), nullptr);
  EXPECT_EQ(rt.stats().service_starts, 4u);
  EXPECT_EQ(rt.stats().service_stops, 2u);
}

TEST(NodeRuntime, RemoveServiceStopsIt) {
  Lan lan{1};
  Runtime& rt = lan.runtime(0);
  rt.emplace_service<transactions::RpcEndpoint>("rpc");
  rt.remove_service("rpc");
  EXPECT_EQ(rt.service_count(), 0u);
  EXPECT_EQ(rt.service<transactions::RpcEndpoint>("rpc"), nullptr);
  // The port is free again: a new endpoint binds without tripping the
  // duplicate-bind check.
  rt.emplace_service<transactions::RpcEndpoint>("rpc2");
}

TEST(NodeRuntime, StorageSurvivesCrash) {
  Lan lan{1};
  Runtime& rt = lan.runtime(0);
  rt.storage("disk").append(to_bytes("v"));
  rt.crash();
  rt.restart();
  ASSERT_EQ(rt.storage("disk").size(), 1u);
  EXPECT_EQ(to_string(rt.storage("disk").read(0)), "v");
}

// --- directory server WAL rehydration (§3.8) --------------------------------

TEST(NodeRuntime, DirectoryServerRehydratesFromWal) {
  Lan lan{3};
  Runtime& dir_rt = lan.runtime(0);
  // The directory journals every mutation to the runtime's stable
  // storage; its factory hands the same volume to every incarnation.
  dir_rt.add_service<discovery::DirectoryServer>("directory", [](Runtime& r) {
    return std::make_unique<discovery::DirectoryServer>(
        r.transport(), duration::seconds(1), &r.storage("directory"));
  });
  auto& supplier = lan.runtime(1).emplace_service<discovery::CentralizedDiscovery>(
      "disco", std::vector<NodeId>{lan.nodes[0]});
  auto& consumer = lan.runtime(2).emplace_service<discovery::CentralizedDiscovery>(
      "disco", std::vector<NodeId>{lan.nodes[0]});

  qos::SupplierQos s;
  s.service_type = "camera";
  supplier.register_service(s, duration::minutes(10));
  s.service_type = "printer";
  supplier.register_service(s, duration::minutes(10));
  lan.sim.run_until(duration::seconds(2));
  {
    auto* directory = dir_rt.service<discovery::DirectoryServer>("directory");
    ASSERT_NE(directory, nullptr);
    ASSERT_EQ(directory->record_count(), 2u);
    EXPECT_EQ(directory->stats().records_rehydrated, 0u);
  }

  // The directory node dies and reboots. No supplier re-registers.
  dir_rt.crash();
  lan.sim.run_until(duration::seconds(3));
  dir_rt.restart();
  auto* reborn = dir_rt.service<discovery::DirectoryServer>("directory");
  ASSERT_NE(reborn, nullptr);
  EXPECT_EQ(reborn->stats().records_rehydrated, 2u);
  EXPECT_EQ(reborn->record_count(), 2u);

  // The rehydrated records answer queries.
  std::size_t found = 0;
  lan.sim.schedule_after(duration::millis(100), [&] {
    qos::ConsumerQos want;
    want.service_type = "camera";
    consumer.query(want,
                   [&](std::vector<discovery::ServiceRecord> records) {
                     found = records.size();
                   },
                   4, duration::seconds(2));
  });
  lan.sim.run_until(duration::seconds(6));
  EXPECT_EQ(found, 1u);
}

TEST(NodeRuntime, DirectoryWalDropsUnregisteredAndExpired) {
  Lan lan{2};
  Runtime& dir_rt = lan.runtime(0);
  dir_rt.add_service<discovery::DirectoryServer>("directory", [](Runtime& r) {
    return std::make_unique<discovery::DirectoryServer>(
        r.transport(), duration::seconds(1), &r.storage("directory"));
  });
  auto& disco = lan.runtime(1).emplace_service<discovery::CentralizedDiscovery>(
      "disco", std::vector<NodeId>{lan.nodes[0]});

  qos::SupplierQos s;
  s.service_type = "ephemeral";
  disco.register_service(s, duration::seconds(2));  // short lease
  s.service_type = "kept";
  disco.register_service(s, duration::minutes(10));
  s.service_type = "dropped";
  const auto dropped = disco.register_service(s, duration::minutes(10));
  lan.sim.run_until(duration::seconds(1));
  disco.unregister_service(dropped);
  lan.sim.run_until(duration::seconds(2));
  // The supplier dies, so "ephemeral" stops being renewed at half-life
  // and its lease lapses; "kept" has minutes left on the clock.
  lan.runtime(1).crash();
  lan.sim.run_until(duration::seconds(10));

  dir_rt.crash();
  dir_rt.restart();
  auto* reborn = dir_rt.service<discovery::DirectoryServer>("directory");
  ASSERT_NE(reborn, nullptr);
  // Only "kept" comes back: the unregister was journalled, the expired
  // lease is filtered at replay.
  EXPECT_EQ(reborn->record_count(), 1u);
  const auto records = reborn->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].qos.service_type, "kept");
}

// --- pauses and crashes of one plan ------------------------------------------

// A FaultPlan pause's resume brings back only a node its own pause took
// down. A node that crashes through its Runtime before or during the
// pause stays link-dead until its restart: peers must not see it online
// while its stack is down, and resumes never outnumber pauses.
TEST(FaultPlanLifecycle, ResumeLeavesACrashedNodeDown) {
  Lan lan{3};
  net::FaultPlan faults{lan.world};
  faults.set_lifecycle_hooks([&lan](NodeId n) { lan.runtime(n.value()).crash(); },
                             [&lan](NodeId n) { lan.runtime(n.value()).restart(); });
  // Node 1: crash at 1 s, then a pause from 2 s to 3 s; restart at 5 s.
  faults.crash(duration::seconds(1), lan.nodes[1], duration::seconds(4));
  faults.pause(duration::seconds(2), lan.nodes[1], duration::seconds(1));
  // Node 2: a pause from 1 s to 3 s, a crash at 2 s; restart at 5 s.
  faults.pause(duration::seconds(1), lan.nodes[2], duration::seconds(2));
  faults.crash(duration::seconds(2), lan.nodes[2], duration::seconds(3));

  lan.sim.run_until(duration::seconds(4));
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_FALSE(lan.runtime(i).up()) << "node " << i;
    EXPECT_FALSE(lan.world.alive(lan.nodes[i])) << "node " << i;
    EXPECT_FALSE(lan.runtime(0).net_stack().peer_online(lan.nodes[i])) << "node " << i;
  }
  EXPECT_EQ(faults.stats().pauses, 1u);
  EXPECT_EQ(faults.stats().resumes, 0u);

  lan.sim.run_until(duration::seconds(6));
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_TRUE(lan.runtime(i).up()) << "node " << i;
    EXPECT_TRUE(lan.runtime(0).net_stack().peer_online(lan.nodes[i])) << "node " << i;
  }
  EXPECT_EQ(faults.stats().restarts, 2u);
}

// A pause that finds its node alive takes it down and brings it back,
// and an overlapping pause that found it down leaves it to that one.
TEST(FaultPlanLifecycle, OnlyThePauseThatTookANodeDownResumesIt) {
  Lan lan{2};
  net::FaultPlan faults{lan.world};
  faults.pause(duration::seconds(1), lan.nodes[1], duration::seconds(3));
  faults.pause(duration::seconds(2), lan.nodes[1], duration::seconds(1));
  lan.sim.run_until(duration::millis(3500));
  EXPECT_FALSE(lan.world.alive(lan.nodes[1]));
  lan.sim.run_until(duration::millis(4500));
  EXPECT_TRUE(lan.world.alive(lan.nodes[1]));
  EXPECT_TRUE(lan.runtime(1).up());
  EXPECT_EQ(faults.stats().pauses, 1u);
  EXPECT_EQ(faults.stats().resumes, 1u);
}

// --- determinism under churn ------------------------------------------------

// One simulated deployment: 100 nodes on a shared segment, every node
// streams to a fixed partner, and 20 nodes crash and restart mid-run.
// Returns a byte dump of every counter the run produced.
std::string churn_run(std::uint64_t seed) {
  // A lossy segment makes the run exercise the RNG (retransmissions,
  // dropped frames), so the dump is genuinely seed-sensitive.
  net::LinkSpec spec = net::ethernet100();
  spec.loss_probability = 0.05;
  Lan lan{100, seed, spec};
  std::vector<std::uint64_t> delivered(lan.nodes.size(), 0);
  for (std::size_t i = 0; i < lan.nodes.size(); ++i) {
    lan.transport(i).set_receiver(transport::ports::kApp,
                                  [&delivered, i](NodeId, const Bytes&) { delivered[i]++; });
  }
  // Every 500 ms each live node sends 64 B to its partner. Receivers are
  // rebound on restart (crash drops the whole stack, handlers included).
  sim::PeriodicTimer traffic{lan.sim, duration::millis(500), [&] {
    for (std::size_t i = 0; i < lan.nodes.size(); ++i) {
      Runtime& rt = lan.runtime(i);
      if (!rt.up()) continue;
      rt.transport().send(lan.nodes[(i + 37) % lan.nodes.size()],
                          transport::ports::kApp, Bytes(64, static_cast<std::uint8_t>(i)));
    }
  }};
  traffic.start();

  // Nodes 10..29 crash at staggered times and restart 3 s later, rebinding
  // their receiver on the fresh transport.
  for (std::size_t k = 0; k < 20; ++k) {
    const std::size_t victim = 10 + k;
    const Time down_at = duration::seconds(5) + k * duration::millis(700);
    lan.sim.schedule_at(down_at, [&lan, victim] { lan.runtime(victim).crash(); });
    lan.sim.schedule_at(down_at + duration::seconds(3), [&lan, victim, &delivered] {
      Runtime& rt = lan.runtime(victim);
      rt.restart();
      rt.transport().set_receiver(
          transport::ports::kApp,
          [&delivered, victim](NodeId, const Bytes&) { delivered[victim]++; });
    });
  }

  lan.sim.run_until(duration::seconds(40));

  std::ostringstream out;
  // The event-order digest leads the dump: one value that witnesses the
  // whole (time, insertion-seq) execution sequence, so a divergence shows
  // up even for runs whose aggregate counters happen to collide.
  out << lan.sim.digest() << ':' << lan.sim.now() << ':' << lan.world.stats().frames_sent
      << ':' << lan.world.stats().bytes_on_wire << ':' << lan.world.stats().frames_delivered;
  for (std::size_t i = 0; i < lan.nodes.size(); ++i) {
    const auto& t = lan.transport(i).stats();
    const auto& r = lan.runtime(i).stats();
    out << '|' << delivered[i] << ',' << t.messages_sent << ',' << t.messages_delivered
        << ',' << t.messages_failed << ',' << t.retransmissions << ',' << t.fragments_sent
        << ',' << r.crashes << ',' << r.restarts << ',' << r.service_starts;
  }
  return out.str();
}

TEST(NodeRuntime, TwinRunsWithChurnAreByteIdentical) {
  const std::string first = churn_run(1234);
  const std::string second = churn_run(1234);
  EXPECT_EQ(first, second);
  // Sanity: the churn actually happened and traffic actually flowed.
  EXPECT_NE(first.find("|"), std::string::npos);
  const std::string different = churn_run(99);
  EXPECT_NE(first, different);  // the dump is sensitive to the run
}

// Twin runs cannot catch a refactor that reorders events the same way in
// both twins. This pins the absolute event-order digest of the churn run
// (World + Runtime + transport on one Simulator), and apart from it a hash
// of the rest of the dump: the World's frames, bytes and deliveries and
// every node's counters. The event-order digest also hashes insertion
// sequence numbers, so a change that schedules the same events in the same
// order under other numbers moves only the first pin.
TEST(GoldenDigest, NodeChurnRun) {
  const std::string dump = churn_run(1234);
  const std::size_t split = dump.find(':');
  EXPECT_EQ(std::stoull(dump.substr(0, split)), 0xe1bc2331774e0365ULL);
  EXPECT_EQ(fnv1a(std::string_view{dump}.substr(split + 1)), 0x367f534306103c7bULL);
}

}  // namespace
}  // namespace ndsm::node
