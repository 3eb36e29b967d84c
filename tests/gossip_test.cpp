#include <gtest/gtest.h>

#include "discovery/gossip.hpp"
#include "test_helpers.hpp"

namespace ndsm::discovery {
namespace {

using testing::Lan;

qos::SupplierQos svc(const std::string& type = "sensor") {
  qos::SupplierQos s;
  s.service_type = type;
  s.reliability = 0.9;
  return s;
}

qos::ConsumerQos wants(const std::string& type = "sensor") {
  qos::ConsumerQos c;
  c.service_type = type;
  return c;
}

struct GossipNet : Lan {
  // A line of seed relationships: node i seeds only node i-1, so full
  // knowledge requires epidemic spread (and peer learning closes the
  // reverse edges).
  explicit GossipNet(std::size_t n, GossipConfig cfg = {}) : Lan(n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<NodeId> seeds;
      if (i > 0) seeds.push_back(nodes[i - 1]);
      clients.push_back(std::make_unique<GossipDiscovery>(transport(i), seeds, cfg));
    }
  }
  std::vector<std::unique_ptr<GossipDiscovery>> clients;
};

TEST(Gossip, KnowledgeSpreadsEpidemically) {
  GossipNet net{8};
  net.clients[7]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(20));  // ~10 rounds
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GE(net.clients[i]->cache_size(), 1u) << i;
  }
}

TEST(Gossip, QueriesAnsweredFromCacheWithoutNetwork) {
  GossipNet net{4};
  net.clients[3]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(15));
  net.world.reset_stats();
  std::vector<ServiceRecord> found;
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { found = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, net.nodes[3]);
  // The query itself sent nothing; any frames in this 10 ms window can only
  // be background gossip (at most one round).
  EXPECT_LE(net.world.stats().frames_sent, 4u * 2u);
}

// An answer waits for the next event; a client destroyed before then
// takes it along, and the callback never runs.
TEST(Gossip, AnswerDiesWithItsClient) {
  GossipNet net{2};
  int answers = 0;
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord>) { answers++; }, 4,
                        duration::seconds(1));
  net.clients[0].reset();
  net.sim.run_until(duration::seconds(1));
  EXPECT_EQ(answers, 0);
}

TEST(Gossip, PeersLearnedFromIncomingGossip) {
  GossipNet net{4};
  // Node 0 was seeded with nobody pointing at it except node 1; after a
  // few rounds it must have learned peers from received gossip.
  net.clients[0]->register_service(svc("beacon"), duration::seconds(600));
  net.sim.run_until(duration::seconds(15));
  EXPECT_GE(net.clients[0]->peer_count(), 1u);
  EXPECT_GE(net.clients[3]->peer_count(), 1u);
}

TEST(Gossip, UnregisteredServiceAgesOutEverywhere) {
  GossipConfig cfg;
  cfg.cache_entry_ttl = duration::seconds(6);
  GossipNet net{4, cfg};
  const ServiceId id = net.clients[3]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(12));
  EXPECT_GE(net.clients[0]->cache_size(), 1u);
  net.clients[3]->unregister_service(id);
  // No fresh copies gossip any more; caches must empty within the TTL.
  net.sim.run_until(duration::seconds(30));
  EXPECT_EQ(net.clients[0]->cache_size(), 0u);
  std::vector<ServiceRecord> found{ServiceRecord{}};
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { found = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  EXPECT_TRUE(found.empty());
}

TEST(Gossip, DeadSupplierAgesOut) {
  GossipConfig cfg;
  cfg.cache_entry_ttl = duration::seconds(6);
  GossipNet net{4, cfg};
  net.clients[3]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(12));
  net.world.kill(net.nodes[3]);
  net.sim.run_until(duration::seconds(30));
  EXPECT_EQ(net.clients[0]->cache_size(), 0u);
}

TEST(Gossip, TrafficIndependentOfQueryRate) {
  GossipNet net{4};
  net.clients[3]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(10));

  net.world.reset_stats();
  net.sim.run_until(duration::seconds(20));
  const auto frames_idle = net.world.stats().frames_sent;

  net.world.reset_stats();
  for (int i = 0; i < 100; ++i) {
    net.sim.schedule_after(duration::millis(i * 90), [&] {
      net.clients[0]->query(wants(), [](std::vector<ServiceRecord>) {}, 4,
                            duration::seconds(1));
    });
  }
  net.sim.run_until(duration::seconds(30));
  const auto frames_busy = net.world.stats().frames_sent;
  // 100 queries cost zero extra frames (both windows carry only gossip).
  EXPECT_NEAR(static_cast<double>(frames_busy), static_cast<double>(frames_idle),
              static_cast<double>(frames_idle) * 0.2);
}

TEST(Gossip, FreshestCopyWins) {
  GossipNet net{3};
  net.clients[2]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(10));
  // Capture the cached stamp, run longer: the cache entry must refresh
  // (newer `registered`) rather than stay frozen at first sighting.
  std::vector<ServiceRecord> first;
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { first = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  ASSERT_EQ(first.size(), 1u);
  net.sim.run_until(duration::seconds(30));
  std::vector<ServiceRecord> later;
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { later = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  ASSERT_EQ(later.size(), 1u);
  EXPECT_GT(later[0].registered, first[0].registered);
}

TEST(Gossip, FanoutLargerThanPeerSetIsSafe) {
  GossipConfig cfg;
  cfg.fanout = 10;  // more than the 1-2 peers each node knows
  GossipNet net{3, cfg};
  net.clients[2]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(10));
  EXPECT_GE(net.clients[0]->cache_size(), 1u);
  EXPECT_GE(net.clients[1]->cache_size(), 1u);
}

// Audit pin (ISSUE 10 satellite): lease expiry and cache TTL are distinct
// clocks, and matching honours the lease on cached copies. A provider
// that dies stops renewing its lease; once that lease lapses, queries must
// come back empty on every node even though the cache TTL — much longer —
// has not aged the entry out yet. (RecordTable matches a copy only while
// its lease runs; own records always match.)
TEST(Gossip, ExpiredLeaseRejectedLongBeforeCacheTtl) {
  GossipConfig cfg;
  cfg.cache_entry_ttl = duration::seconds(600);  // TTL alone would keep it
  GossipNet net{4, cfg};
  net.clients[3]->register_service(svc(), duration::seconds(5));
  net.sim.run_until(duration::seconds(10));
  ASSERT_GE(net.clients[0]->cache_size(), 1u);  // spread while renewed

  // The provider goes silent: the lease stops being renewed and runs out.
  net.world.kill(net.nodes[3]);
  net.sim.run_until(duration::seconds(20));

  std::vector<ServiceRecord> found{ServiceRecord{}};
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { found = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  EXPECT_TRUE(found.empty()) << "expired-lease record served from cache";
  // Well inside the cache TTL: only the lease can have disqualified it.
  ASSERT_LT(net.sim.now(), duration::seconds(600));
}

// A node's own services renew automatically (the ServiceDiscovery
// contract), so they answer its local queries between gossip rounds even
// when the lease is shorter than a round.
TEST(Gossip, OwnServiceLiveBetweenRounds) {
  GossipNet net{2};
  net.clients[0]->register_service(svc(), duration::millis(300));
  int empty = 0;
  int answered = 0;
  for (int i = 1; i <= 40; ++i) {
    net.sim.schedule_at(duration::millis(100 * i), [&] {
      net.clients[0]->query(
          wants(),
          [&](std::vector<ServiceRecord> r) { ++(r.empty() ? empty : answered); }, 4,
          duration::seconds(1));
    });
  }
  net.sim.run_until(duration::seconds(5));
  EXPECT_EQ(empty, 0);
  EXPECT_EQ(answered, 40);
}

TEST(Gossip, OwnServicesNeverEnterOwnCache) {
  GossipNet net{3};
  net.clients[0]->register_service(svc(), duration::seconds(600));
  net.sim.run_until(duration::seconds(15));
  // Node 0's record is an own record, never a copy (authoritative).
  EXPECT_EQ(net.clients[0]->cache_size(), 0u);
  std::vector<ServiceRecord> found;
  net.clients[0]->query(wants(), [&](std::vector<ServiceRecord> r) { found = r; }, 4,
                        duration::seconds(1));
  net.sim.run_until(net.sim.now() + duration::millis(10));
  EXPECT_EQ(found.size(), 1u);  // still discoverable locally
}

}  // namespace
}  // namespace ndsm::discovery
