#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "discovery/adaptive.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "discovery/distributed.hpp"
#include "test_helpers.hpp"

namespace ndsm::discovery {
namespace {

using serialize::Value;
using testing::Lan;
using testing::WirelessGrid;

qos::SupplierQos sensor_service(const std::string& type = "temperature") {
  qos::SupplierQos s;
  s.service_type = type;
  s.attributes = {{"unit", Value{"celsius"}}, {"rate_hz", Value{10}}};
  s.reliability = 0.9;
  return s;
}

qos::ConsumerQos wants(const std::string& type = "temperature") {
  qos::ConsumerQos c;
  c.service_type = type;
  return c;
}

TEST(Record, CodecRoundTrip) {
  ServiceRecord rec;
  rec.id = ServiceId{77};
  rec.provider = NodeId{3};
  rec.qos = sensor_service();
  rec.registered = 1000;
  rec.expires = 2000;
  serialize::Writer w;
  rec.encode(w);
  serialize::Reader r{w.data()};
  const auto decoded = ServiceRecord::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, rec.id);
  EXPECT_EQ(decoded->provider, rec.provider);
  EXPECT_EQ(decoded->qos.service_type, "temperature");
  EXPECT_EQ(decoded->expires, 2000);
}

TEST(Record, ExpiryCheck) {
  ServiceRecord rec;
  rec.expires = 100;
  EXPECT_FALSE(rec.expired(100));
  EXPECT_TRUE(rec.expired(101));
  rec.expires = kTimeNever;
  EXPECT_FALSE(rec.expired(INT64_MAX - 1));
}

// RecordTable: one case per rule.

ServiceRecord copy_of(std::uint64_t id, Time registered, Time expires) {
  ServiceRecord rec;
  rec.id = ServiceId{id};
  rec.provider = NodeId{9};
  rec.qos = sensor_service();
  rec.registered = registered;
  rec.expires = expires;
  return rec;
}

TEST(RecordTable, LaterDatedCopyReplacesHeld) {
  RecordTable table{NodeId{1}};
  ASSERT_TRUE(table.keep(copy_of(7, 100, 1000), 100));
  auto newer = copy_of(7, 200, 1100);
  newer.qos.reliability = 0.5;
  EXPECT_TRUE(table.keep(newer, 200));
  const auto held = table.records();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].registered, 200);
  EXPECT_DOUBLE_EQ(held[0].qos.reliability, 0.5);
}

TEST(RecordTable, EqualDateIsARenewal) {
  RecordTable table{NodeId{1}};
  ASSERT_TRUE(table.keep(copy_of(7, 100, 1000), 100));
  // A client re-sends its record with the registration date and a later
  // expiry.
  EXPECT_TRUE(table.keep(copy_of(7, 100, 2000), 900));
  const auto held = table.records();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].expires, 2000);
}

TEST(RecordTable, OlderDatedCopyIgnored) {
  RecordTable table{NodeId{1}};
  ASSERT_TRUE(table.keep(copy_of(7, 200, 1000), 200));
  EXPECT_FALSE(table.keep(copy_of(7, 100, 5000), 300));
  const auto held = table.records();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].registered, 200);
  EXPECT_EQ(held[0].expires, 1000);
}

TEST(RecordTable, ExpiredArrivalNotKept) {
  RecordTable table{NodeId{1}};
  EXPECT_FALSE(table.keep(copy_of(7, 0, 50), 100));
  EXPECT_EQ(table.copy_count(), 0u);
  EXPECT_EQ(table.evict(100), 0u);  // never held, so never evicted either
}

TEST(RecordTable, EvictionCountsLapsedAndAgedCopies) {
  RecordTable table{NodeId{1}, /*max_age=*/100};
  ASSERT_TRUE(table.keep(copy_of(1, 0, 60), 0));           // lease lapses at 60
  ASSERT_TRUE(table.keep(copy_of(2, 0, kTimeNever), 0));   // dated at 0
  ASSERT_TRUE(table.keep(copy_of(3, 90, kTimeNever), 90));  // dated at 90
  EXPECT_EQ(table.evict(100), 1u);                          // lapsed
  EXPECT_EQ(table.evict(150), 1u);                          // aged past 100
  EXPECT_EQ(table.copy_count(), 1u);
  EXPECT_EQ(table.records()[0].id, ServiceId{3});
  // Without an age limit only leases evict.
  RecordTable unbounded{NodeId{1}};
  ASSERT_TRUE(unbounded.keep(copy_of(1, 0, 60), 0));
  ASSERT_TRUE(unbounded.keep(copy_of(2, 0, kTimeNever), 0));
  EXPECT_EQ(unbounded.evict(duration::seconds(3600)), 1u);
  EXPECT_EQ(unbounded.copy_count(), 1u);
}

TEST(RecordTable, RemovingACopyHandsItBack) {
  RecordTable table{NodeId{1}};
  ASSERT_TRUE(table.keep(copy_of(7, 100, 1000), 100));
  const auto removed = table.remove_copy(ServiceId{7});
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, ServiceId{7});
  EXPECT_EQ(removed->expires, 1000);
  EXPECT_EQ(table.copy_count(), 0u);
  EXPECT_FALSE(table.remove_copy(ServiceId{7}).has_value());
}

TEST(RecordTable, OwnRecordsMatchWhateverTheirLease) {
  RecordTable table{NodeId{1}};
  const ServiceId id = table.add_own(sensor_service(), /*lease=*/10, /*now=*/0);
  EXPECT_EQ(id, make_service_id(NodeId{1}, 1));
  // A remote copy whose lease lapsed never matches.
  ASSERT_TRUE(table.keep(copy_of(make_service_id(NodeId{9}, 1).value(), 0, 10), 0));
  const Time later = duration::seconds(100);
  const auto found = table.match(wants(), 8, later);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, id);
  // Matching renews the lease without re-dating the record.
  EXPECT_EQ(found[0].registered, 0);
  EXPECT_EQ(found[0].expires, later + 10);
  EXPECT_EQ(table.match(wants(), 8, later, /*own_only=*/true).size(), 1u);
  EXPECT_TRUE(table.remove_own(id));
  EXPECT_TRUE(table.match(wants(), 8, later).empty());
}

TEST(RecordTable, RedatingSetsRegistered) {
  RecordTable table{NodeId{1}};
  const ServiceId id = table.add_own(sensor_service(), /*lease=*/50, /*now=*/10);
  table.redate_own(500);
  auto own = table.records(/*own_only=*/true);
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own[0].registered, 500);
  EXPECT_EQ(own[0].expires, 550);
  // A renewal alone keeps the date.
  const ServiceRecord* renewed = table.renew(id, 900);
  ASSERT_NE(renewed, nullptr);
  EXPECT_EQ(renewed->registered, 500);
  EXPECT_EQ(renewed->expires, 950);
  EXPECT_EQ(table.renew(ServiceId{12345}, 900), nullptr);
}

TEST(RecordTable, OwnRecordsThenCopiesEachInIdOrder) {
  RecordTable table{NodeId{2}};
  const ServiceId a = table.add_own(sensor_service(), kTimeNever, 0);
  const ServiceId b = table.add_own(sensor_service(), kTimeNever, 0);
  for (const std::uint64_t id : {make_service_id(NodeId{5}, 3).value(),
                                 make_service_id(NodeId{1}, 1).value(),
                                 make_service_id(NodeId{5}, 1).value()}) {
    ASSERT_TRUE(table.keep(copy_of(id, 0, kTimeNever), 0));
  }
  std::vector<ServiceId> order;
  for (const auto& rec : table.records()) order.push_back(rec.id);
  EXPECT_EQ(order, (std::vector<ServiceId>{a, b, make_service_id(NodeId{1}, 1),
                                           make_service_id(NodeId{5}, 1),
                                           make_service_id(NodeId{5}, 3)}));
  EXPECT_EQ(table.own_count(), 2u);
  EXPECT_EQ(table.copy_count(), 3u);
}

TEST(Messages, QueryRoundTrip) {
  QueryMessage q;
  q.query_id = 42;
  q.reply_to = NodeId{5};
  q.reply_port = transport::ports::kDiscoveryReplyCent;
  q.consumer = wants();
  q.max_results = 3;
  const Bytes frame = encode_query(q);
  EXPECT_EQ(peek_kind(frame), MsgKind::kQuery);
  serialize::Reader r{frame};
  (void)r.u8();
  const auto decoded = decode_query(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->query_id, 42u);
  EXPECT_EQ(decoded->reply_to, NodeId{5});
  EXPECT_EQ(decoded->max_results, 3u);
  EXPECT_EQ(decoded->consumer.service_type, "temperature");
}

TEST(Messages, PeekKindRejectsGarbage) {
  EXPECT_FALSE(peek_kind(Bytes{}).has_value());
  EXPECT_FALSE(peek_kind(Bytes{0}).has_value());
  EXPECT_FALSE(peek_kind(Bytes{200}).has_value());
}

struct CentralizedSetup : Lan {
  // Node 0 is the directory; nodes 1..n-1 are clients.
  explicit CentralizedSetup(std::size_t n) : Lan(n) {
    server = std::make_unique<DirectoryServer>(transport(0));
    for (std::size_t i = 1; i < n; ++i) {
      clients.push_back(std::make_unique<CentralizedDiscovery>(
          transport(i), std::vector<NodeId>{nodes[0]}));
    }
  }
  std::unique_ptr<DirectoryServer> server;
  std::vector<std::unique_ptr<CentralizedDiscovery>> clients;
};

TEST(Centralized, RegisterThenQuery) {
  CentralizedSetup setup{3};
  setup.clients[0]->register_service(sensor_service(), duration::seconds(60));
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(setup.server->record_count(), 1u);

  std::vector<ServiceRecord> found;
  setup.clients[1]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, setup.nodes[1]);
  EXPECT_EQ(found[0].qos.service_type, "temperature");
}

// A centralized lookup is one trace: following parent links from the
// querier's query_answered event reaches its query span, through the
// directory's serve span and each message's delivery, both when the
// directory serves at once and when the query waits in its queue.
TEST(Centralized, AnsweredQueryTracesBackToItsQuerySpan) {
  for (const Time processing : {Time{0}, duration::millis(5)}) {
    auto& tracer = obs::Tracer::instance();
    tracer.clear();
    CentralizedSetup setup{3};
    setup.server->set_processing_time(processing);
    setup.clients[0]->register_service(sensor_service(), duration::seconds(60));
    setup.sim.run_until(duration::seconds(1));
    std::size_t found = 0;
    setup.clients[1]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs.size(); },
                            8, duration::seconds(2));
    setup.sim.run_until(duration::seconds(3));
    ASSERT_EQ(found, 1u);

    const auto events = tracer.snapshot();
    const auto answered = std::find_if(events.begin(), events.end(), [](const auto& e) {
      return e.name == "query_answered";
    });
    ASSERT_NE(answered, events.end());
    EXPECT_EQ(testing::trace_ancestry(events, *answered, "query"),
              (std::vector<std::string>{"deliver", "message", "serve_query", "deliver",
                                        "message", "query"}))
        << "processing time " << processing;
    tracer.clear();
  }
}

TEST(Centralized, QueryNoMatchReturnsEmpty) {
  CentralizedSetup setup{3};
  setup.clients[0]->register_service(sensor_service(), duration::seconds(60));
  setup.sim.run_until(duration::seconds(1));
  bool called = false;
  std::vector<ServiceRecord> found{ServiceRecord{}};
  setup.clients[1]->query(wants("humidity"),
                          [&](std::vector<ServiceRecord> recs) {
                            called = true;
                            found = recs;
                          },
                          8, duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  EXPECT_TRUE(called);
  EXPECT_TRUE(found.empty());
}

TEST(Centralized, UnregisterRemoves) {
  CentralizedSetup setup{2};
  const ServiceId id = setup.clients[0]->register_service(sensor_service(), kTimeNever);
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(setup.server->record_count(), 1u);
  setup.clients[0]->unregister_service(id);
  setup.sim.run_until(duration::seconds(2));
  EXPECT_EQ(setup.server->record_count(), 0u);
}

TEST(Centralized, LeaseExpiresWithoutRenewal) {
  CentralizedSetup setup{2};
  setup.clients[0]->register_service(sensor_service(), duration::seconds(10));
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(setup.server->record_count(), 1u);
  // Kill the client so it cannot renew; the directory must age the record out.
  setup.world.kill(setup.nodes[1]);
  setup.sim.run_until(duration::seconds(30));
  EXPECT_EQ(setup.server->record_count(), 0u);
}

TEST(Centralized, LeaseRenewalKeepsAlive) {
  CentralizedSetup setup{2};
  setup.clients[0]->register_service(sensor_service(), duration::seconds(10));
  setup.sim.run_until(duration::seconds(60));  // several lease periods
  EXPECT_EQ(setup.server->record_count(), 1u);
}

TEST(Centralized, MaxResultsHonoured) {
  CentralizedSetup setup{2};
  for (int i = 0; i < 10; ++i) {
    setup.clients[0]->register_service(sensor_service(), duration::seconds(60));
  }
  setup.sim.run_until(duration::seconds(1));
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 3,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  EXPECT_EQ(found.size(), 3u);
}

TEST(Centralized, BestMatchRankedFirst) {
  CentralizedSetup setup{3};
  auto low = sensor_service();
  low.reliability = 0.5;
  auto high = sensor_service();
  high.reliability = 0.99;
  setup.clients[0]->register_service(low, duration::seconds(60));
  setup.clients[1]->register_service(high, duration::seconds(60));
  setup.sim.run_until(duration::seconds(1));
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  ASSERT_EQ(found.size(), 2u);
  EXPECT_DOUBLE_EQ(found[0].qos.reliability, 0.99);
}

// A directory that crashes with a query in its queue serves nothing
// once it is gone: the client's query times out empty.
TEST(Centralized, QueuedQueryDiesWithTheDirectory) {
  Lan lan{2};
  auto& directory =
      lan.runtime(0).add_service<DirectoryServer>("directory", [](node::Runtime& rt) {
        auto server = std::make_unique<DirectoryServer>(rt.transport());
        server->set_processing_time(duration::millis(100));
        return server;
      });
  CentralizedDiscovery client{lan.transport(1), {lan.nodes[0]}};
  std::optional<std::vector<ServiceRecord>> found;
  client.query(wants(), [&](std::vector<ServiceRecord> recs) { found = std::move(recs); }, 8,
               duration::seconds(1));
  lan.sim.run_until(duration::millis(50));
  ASSERT_EQ(directory.stats().queries, 1u);  // queued, not yet served
  lan.runtime(0).crash();
  lan.sim.run_until(duration::seconds(2));
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->empty());
  EXPECT_EQ(client.stats().queries_empty, 1u);
}

TEST(Mirroring, MutationsReplicateToMirrors) {
  Lan lan{4};
  DirectoryServer primary{lan.transport(0)};
  DirectoryServer mirror1{lan.transport(1)};
  DirectoryServer mirror2{lan.transport(2)};
  primary.set_mirrors({lan.nodes[1], lan.nodes[2]});

  CentralizedDiscovery client{lan.transport(3), {lan.nodes[0]}};
  const ServiceId id = client.register_service(sensor_service(), kTimeNever);
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(primary.record_count(), 1u);
  EXPECT_EQ(mirror1.record_count(), 1u);
  EXPECT_EQ(mirror2.record_count(), 1u);

  client.unregister_service(id);
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(primary.record_count(), 0u);
  EXPECT_EQ(mirror1.record_count(), 0u);
  EXPECT_EQ(mirror2.record_count(), 0u);
}

TEST(Mirroring, RoundRobinSpreadsQueries) {
  Lan lan{4};
  DirectoryServer primary{lan.transport(0)};
  DirectoryServer mirror{lan.transport(1)};
  primary.set_mirrors({lan.nodes[1]});
  CentralizedDiscovery client{lan.transport(3), {lan.nodes[0], lan.nodes[1]},
                              MirrorPolicy::kRoundRobin};
  client.register_service(sensor_service(), kTimeNever);
  lan.sim.run_until(duration::seconds(1));
  for (int i = 0; i < 10; ++i) {
    client.query(wants(), [](std::vector<ServiceRecord>) {}, 8, duration::seconds(1));
  }
  lan.sim.run_until(duration::seconds(5));
  EXPECT_EQ(primary.stats().queries, 5u);
  EXPECT_EQ(mirror.stats().queries, 5u);
}

TEST(Mirroring, NearestPolicyPicksClosest) {
  Lan lan{4};  // positions x = 0, 10, 20, 30
  DirectoryServer primary{lan.transport(0)};
  DirectoryServer mirror{lan.transport(2)};
  primary.set_mirrors({lan.nodes[2]});
  CentralizedDiscovery client{lan.transport(3), {lan.nodes[0], lan.nodes[2]},
                              MirrorPolicy::kNearest};
  client.register_service(sensor_service(), kTimeNever);
  lan.sim.run_until(duration::seconds(1));
  for (int i = 0; i < 4; ++i) {
    client.query(wants(), [](std::vector<ServiceRecord>) {}, 8, duration::seconds(1));
  }
  lan.sim.run_until(duration::seconds(5));
  EXPECT_EQ(mirror.stats().queries, 4u);  // node 2 at x=20 is nearest to x=30
  EXPECT_EQ(primary.stats().queries, 0u);
}

struct DistributedSetup : WirelessGrid {
  explicit DistributedSetup(std::size_t n, DistributedConfig cfg = {})
      : WirelessGrid(n, 20.0, 42, 1e9) {
    with_routers<routing::FloodingRouter>();
    for (std::size_t i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<DistributedDiscovery>(transport(i), cfg));
    }
  }
  std::vector<std::unique_ptr<DistributedDiscovery>> clients;
};

TEST(Distributed, FloodedQueryFindsRemoteService) {
  DistributedSetup setup{9};
  setup.clients[8]->register_service(sensor_service(), duration::seconds(60));
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, setup.nodes[8]);
}

TEST(Distributed, CollectsFromMultipleSuppliers) {
  DistributedSetup setup{9};
  for (const std::size_t i : {2u, 5u, 7u}) {
    setup.clients[i]->register_service(sensor_service(), duration::seconds(60));
  }
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  EXPECT_EQ(found.size(), 3u);
}

TEST(Distributed, TimeoutWithNoSuppliers) {
  DistributedSetup setup{4};
  bool called = false;
  std::vector<ServiceRecord> found{ServiceRecord{}};
  setup.clients[0]->query(wants(),
                          [&](std::vector<ServiceRecord> recs) {
                            called = true;
                            found = recs;
                          },
                          8, duration::seconds(1));
  setup.sim.run_until(duration::seconds(2));
  EXPECT_TRUE(called);
  EXPECT_TRUE(found.empty());
}

TEST(Distributed, EarlyCompletionAtMaxResults) {
  DistributedSetup setup{9};
  for (std::size_t i = 1; i < 9; ++i) {
    setup.clients[i]->register_service(sensor_service(), duration::seconds(60));
  }
  Time answered_at = -1;
  setup.clients[0]->query(wants(),
                          [&](std::vector<ServiceRecord> recs) {
                            answered_at = setup.sim.now();
                            EXPECT_EQ(recs.size(), 2u);
                          },
                          /*max_results=*/2, /*timeout=*/duration::seconds(10));
  setup.sim.run_until(duration::seconds(11));
  ASSERT_GE(answered_at, 0);
  EXPECT_LT(answered_at, duration::seconds(10));  // finished before the timeout
}

TEST(Distributed, LocalServiceAnsweredLocally) {
  DistributedSetup setup{4};
  setup.clients[0]->register_service(sensor_service(), duration::seconds(60));
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(1));
  setup.sim.run_until(duration::seconds(2));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, setup.nodes[0]);
}

TEST(Distributed, AdvertisementsFillCaches) {
  DistributedConfig cfg;
  cfg.advertise_period = duration::seconds(2);
  DistributedSetup setup{9, cfg};
  setup.clients[8]->register_service(sensor_service(), duration::seconds(60));
  setup.sim.run_until(duration::seconds(5));
  EXPECT_GE(setup.clients[0]->cache_size(), 1u);
  // Query is now answered from cache without flooding.
  const auto floods_before = setup.router(0).stats().data_sent;
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(8));
  EXPECT_EQ(found.size(), 1u);
  EXPECT_EQ(setup.router(0).stats().data_sent, floods_before);
}

TEST(Distributed, StaleCacheEntriesIgnored) {
  DistributedConfig cfg;
  cfg.advertise_period = duration::seconds(2);
  cfg.cache_entry_ttl = duration::seconds(5);
  DistributedSetup setup{4, cfg};
  setup.clients[3]->register_service(sensor_service(), duration::seconds(600));
  setup.sim.run_until(duration::seconds(4));
  EXPECT_GE(setup.clients[0]->cache_size(), 1u);
  // Supplier dies; its cached advertisement goes stale after the TTL and
  // queries fall back to flooding (which finds nothing).
  setup.world.kill(setup.nodes[3]);
  setup.sim.run_until(duration::seconds(20));
  // The stale copy is gone from the cache, not only skipped by matching.
  EXPECT_EQ(setup.clients[0]->cache_size(), 0u);
  std::vector<ServiceRecord> found{ServiceRecord{}};
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(25));
  EXPECT_TRUE(found.empty());
}

// A flooded query ranks the replies it collected, so the callback gets
// them best first (the QueryCallback contract; TransactionManager::bind
// takes the first record), not in id order.
TEST(Distributed, CollectedAnswersAreBestFirst) {
  DistributedSetup setup{9};
  auto low = sensor_service();
  low.reliability = 0.5;
  auto high = sensor_service();
  high.reliability = 0.99;
  setup.clients[1]->register_service(low, duration::seconds(60));
  setup.clients[8]->register_service(high, duration::seconds(60));
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  ASSERT_EQ(found.size(), 2u);
  EXPECT_DOUBLE_EQ(found[0].qos.reliability, 0.99);
  EXPECT_DOUBLE_EQ(found[1].qos.reliability, 0.5);
}

// An answer from the cache waits for the next event; a client destroyed
// before then takes it along, and the callback never runs.
TEST(Distributed, CachedAnswerDiesWithItsClient) {
  DistributedConfig cfg;
  cfg.advertise_period = duration::seconds(2);
  DistributedSetup setup{4, cfg};
  setup.clients[3]->register_service(sensor_service(), duration::seconds(60));
  setup.sim.run_until(duration::seconds(5));
  ASSERT_GE(setup.clients[0]->cache_size(), 1u);
  int answers = 0;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord>) { answers++; }, 8,
                          duration::seconds(2));
  ASSERT_EQ(setup.clients[0]->stats().queries_answered, 1u);  // from the cache
  setup.clients[0].reset();
  setup.sim.run_until(duration::seconds(8));
  EXPECT_EQ(answers, 0);
}

// An answer from the advertisement cache ranks the node's own services
// together with the cached copies: the better remote copy wins a
// one-record query over a worse own service with a lower id.
TEST(Distributed, CachedAnswerRanksOwnWithCopies) {
  DistributedConfig cfg;
  cfg.advertise_period = duration::seconds(2);
  DistributedSetup setup{4, cfg};
  auto low = sensor_service();
  low.reliability = 0.5;
  auto high = sensor_service();
  high.reliability = 0.99;
  setup.clients[0]->register_service(low, duration::seconds(60));
  setup.clients[3]->register_service(high, duration::seconds(60));
  setup.sim.run_until(duration::seconds(5));
  ASSERT_GE(setup.clients[0]->cache_size(), 1u);
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 1,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(6));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_DOUBLE_EQ(found[0].qos.reliability, 0.99);
  EXPECT_EQ(found[0].provider, setup.nodes[3]);
}

// A reply may carry several records; the collected answer is still cut
// to max_results.
TEST(Distributed, MaxResultsHonoured) {
  DistributedSetup setup{9};
  setup.clients[1]->register_service(sensor_service(), duration::seconds(60));
  for (int i = 0; i < 3; ++i) {
    setup.clients[8]->register_service(sensor_service(), duration::seconds(60));
  }
  std::vector<ServiceRecord> found;
  setup.clients[0]->query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 2,
                          duration::seconds(2));
  setup.sim.run_until(duration::seconds(3));
  EXPECT_EQ(found.size(), 2u);
}

// The advertisement cache is bounded by the TTL: a supplier that keeps
// replacing short-lived services leaves only the ones advertised within
// one TTL in a peer's cache, not one entry per service it ever offered.
TEST(Distributed, CacheForgetsStaleAdvertisements) {
  DistributedConfig cfg;
  cfg.advertise_period = duration::seconds(1);
  cfg.cache_entry_ttl = duration::seconds(5);
  DistributedSetup setup{4, cfg};
  std::size_t peak = 0;
  for (int i = 0; i < 200; ++i) {
    setup.sim.schedule_at(duration::seconds(i), [&setup] {
      const ServiceId id =
          setup.clients[3]->register_service(sensor_service(), duration::seconds(3));
      setup.sim.schedule_after(duration::millis(2500),
                               [&setup, id] { setup.clients[3]->unregister_service(id); });
    });
    setup.sim.schedule_at(duration::seconds(i) + duration::millis(999), [&setup, &peak] {
      peak = std::max(peak, setup.clients[0]->cache_size());
    });
  }
  setup.sim.run_until(duration::seconds(201));
  EXPECT_LE(setup.clients[0]->cache_size(), 6u);
  EXPECT_LE(peak, 6u);
  EXPECT_GE(peak, 1u);  // the advertisements did arrive
}

TEST(Adaptive, StartsDistributedSwitchesUnderQueryLoad) {
  Lan lan{4};
  DirectoryServer server{lan.transport(0)};
  AdaptiveConfig cfg;
  cfg.evaluation_period = duration::seconds(2);
  AdaptiveDiscovery adaptive{lan.transport(1), {lan.nodes[0]}, cfg,
                             /*density=*/[] { return 64.0; }};
  DistributedDiscovery remote_supplier{lan.transport(2)};
  remote_supplier.register_service(sensor_service(), duration::seconds(600));

  EXPECT_EQ(adaptive.mode(), DiscoveryMode::kDistributed);
  // Sustained query traffic on a dense network: flooding is expensive,
  // policy must switch to centralized.
  for (int round = 0; round < 10; ++round) {
    lan.sim.schedule_at(duration::seconds(round), [&] {
      for (int q = 0; q < 6; ++q) {
        adaptive.query(wants(), [](std::vector<ServiceRecord>) {}, 4,
                       duration::millis(500));
      }
    });
  }
  lan.sim.run_until(duration::seconds(30));
  EXPECT_EQ(adaptive.mode(), DiscoveryMode::kCentralized);
  EXPECT_GE(adaptive.mode_switches(), 1u);
  EXPECT_GT(adaptive.query_rate_per_s(), 0.0);
}

TEST(Adaptive, StaysDistributedWhenChurnDominates) {
  Lan lan{4};
  DirectoryServer server{lan.transport(0)};
  AdaptiveConfig cfg;
  cfg.evaluation_period = duration::seconds(2);
  AdaptiveDiscovery adaptive{lan.transport(1), {lan.nodes[0]}, cfg,
                             /*density=*/[] { return 4.0; }};
  // Heavy churn, almost no queries: distributed (registration-free) wins.
  for (int round = 0; round < 20; ++round) {
    lan.sim.schedule_at(duration::seconds(round), [&] {
      const ServiceId id = adaptive.register_service(sensor_service(), duration::seconds(30));
      lan.sim.schedule_after(duration::millis(500),
                             [&adaptive, id] { adaptive.unregister_service(id); });
    });
  }
  lan.sim.run_until(duration::seconds(25));
  EXPECT_EQ(adaptive.mode(), DiscoveryMode::kDistributed);
}

TEST(Adaptive, RegistrationsSurviveModeSwitch) {
  Lan lan{4};
  DirectoryServer server{lan.transport(0)};
  AdaptiveConfig cfg;
  cfg.evaluation_period = duration::seconds(1);
  AdaptiveDiscovery supplier{lan.transport(1), {lan.nodes[0]}, cfg,
                             [] { return 64.0; }};
  AdaptiveDiscovery consumer{lan.transport(2), {lan.nodes[0]}, cfg,
                             [] { return 64.0; }};
  supplier.register_service(sensor_service(), duration::seconds(600));

  // Drive the consumer into centralized mode with query load.
  for (int round = 0; round < 12; ++round) {
    lan.sim.schedule_at(duration::seconds(round), [&] {
      for (int q = 0; q < 6; ++q) {
        consumer.query(wants(), [](std::vector<ServiceRecord>) {}, 4, duration::millis(500));
      }
      // Light supplier traffic so its policy also re-evaluates.
      supplier.query(wants(), [](std::vector<ServiceRecord>) {}, 1, duration::millis(500));
    });
  }
  lan.sim.run_until(duration::seconds(20));
  ASSERT_EQ(consumer.mode(), DiscoveryMode::kCentralized);
  // After the supplier also switched, its service must be findable through
  // the directory.
  std::vector<ServiceRecord> found;
  consumer.query(wants(), [&](std::vector<ServiceRecord> recs) { found = recs; }, 8,
                 duration::seconds(2));
  lan.sim.run_until(duration::seconds(25));
  EXPECT_EQ(found.size(), 1u);
}

TEST(Adaptive, SecuredServiceEndToEnd) {
  // Password-gated matching through a full register/query cycle (§3.3
  // "security ... incorporated into the matching protocol").
  CentralizedSetup setup{3};
  auto secured = sensor_service();
  secured.set_password("sesame");
  setup.clients[0]->register_service(secured, duration::seconds(60));
  setup.sim.run_until(duration::seconds(1));

  std::vector<ServiceRecord> no_pw;
  setup.clients[1]->query(wants(), [&](std::vector<ServiceRecord> r) { no_pw = r; }, 8,
                          duration::seconds(1));
  setup.sim.run_until(duration::seconds(2));
  EXPECT_TRUE(no_pw.empty());

  auto c = wants();
  c.password = "sesame";
  std::vector<ServiceRecord> with_pw;
  setup.clients[1]->query(c, [&](std::vector<ServiceRecord> r) { with_pw = r; }, 8,
                          duration::seconds(1));
  setup.sim.run_until(duration::seconds(4));
  EXPECT_EQ(with_pw.size(), 1u);
}

}  // namespace
}  // namespace ndsm::discovery
