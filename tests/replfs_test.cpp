// apps::replfs tests. Three layers:
//   Replfs       unit + protocol-path tests on a sim LAN (commit on all
//                replicas, multi-block + empty values, write serialization,
//                targeted block repair, WAL recovery, in-doubt rehydration,
//                exactly-once commits, hostile-traffic bounds, clean abort);
//   ReplfsChaos  the flagship soak — 5 replicas + 1 client under composed
//                faults including replica crash/restart, proving every
//                acked write lands on every replica, twin-run
//                digest-identical (CI's `ctest -R Chaos` picks it up);
//   ReplfsUdp    the same client/server pair unmodified on loopback UDP.

#include "apps/replfs/replfs.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/faults.hpp"
#include "net/udp_stack.hpp"
#include "node/runtime.hpp"
#include "recovery/wal.hpp"
#include "serialize/codec.hpp"
#include "test_helpers.hpp"
#include "transport/ports.hpp"

namespace ndsm::apps::replfs {
namespace {

// Control kinds on port kReplfs (mirrors the implementation's private
// enum; tests forge messages to drive server paths directly).
constexpr std::uint8_t kKindCommit = 4;
constexpr std::uint8_t kKindCommitAck = 5;
constexpr std::uint8_t kKindBlocks = 10;

// N replicas (as Runtime services, so crash()/restart() rebuilds them on
// surviving storage) plus one client node.
struct ReplfsNet {
  testing::Lan lan;
  std::vector<NodeId> server_ids;
  std::unique_ptr<Client> client;

  explicit ReplfsNet(std::size_t n_servers, std::uint64_t seed = 42, ReplfsConfig cfg = {})
      : lan(n_servers + 1, seed) {
    for (std::size_t i = 0; i < n_servers; ++i) {
      lan.runtime(i).add_service<Server>("replfs", [cfg](node::Runtime& rt) {
        return std::make_unique<Server>(rt.transport(), rt.net_stack(),
                                        rt.storage("replfs-wal"), cfg);
      });
      server_ids.push_back(lan.nodes[i]);
    }
    client = std::make_unique<Client>(lan.transport(n_servers),
                                      lan.runtime(n_servers).net_stack(), server_ids, cfg);
  }

  Server& server(std::size_t i) { return *lan.runtime(i).service<Server>("replfs"); }
  void run(Time d) { lan.sim.run_until(lan.sim.now() + d); }
};

TEST(Replfs, WriteCommitsOnAllReplicas) {
  ReplfsNet net{3};
  Status result{ErrorCode::kCancelled, "pending"};
  net.client->write("greeting", to_bytes("hello replicas"),
                    [&](Status s) { result = s; });
  net.run(duration::seconds(5));

  ASSERT_TRUE(result.is_ok()) << result.to_string();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(net.server(i).store().count("greeting"), 1u) << "replica " << i;
    EXPECT_EQ(to_string(net.server(i).store().at("greeting")), "hello replicas");
    EXPECT_EQ(net.server(i).stats().commits_applied, 1u);
    EXPECT_EQ(net.server(i).indoubt_count(), 0u);
    EXPECT_EQ(net.server(i).digest(), net.server(0).digest());
  }
  EXPECT_EQ(net.client->stats().writes_committed, 1u);
  ASSERT_EQ(net.client->committed_log().size(), 1u);
  EXPECT_EQ(net.client->committed_log()[0].key, "greeting");
  EXPECT_EQ(net.client->committed_log()[0].checksum, fnv1a(to_bytes("hello replicas")));
  EXPECT_EQ(net.client->commit_latency().count(), 1u);
  // One multicast per block reached all three replicas: no repair needed.
  EXPECT_EQ(net.client->stats().blocks_multicast, 1u);
  EXPECT_EQ(net.client->stats().blocks_repaired, 0u);
}

TEST(Replfs, MultiBlockAndEmptyValuesRoundTrip) {
  ReplfsConfig cfg;
  cfg.block_bytes = 128;
  ReplfsNet net{3, 42, cfg};
  Bytes big(1000, 0x5a);  // 8 blocks of 128 = 1024 > 1000 -> 8 fragments
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  int done = 0;
  net.client->write("big", big, [&](Status s) { done += s.is_ok() ? 1 : 0; });
  net.client->write("empty", Bytes{}, [&](Status s) { done += s.is_ok() ? 1 : 0; });
  net.run(duration::seconds(10));

  ASSERT_EQ(done, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(net.server(i).store().at("big"), big) << "replica " << i;
    EXPECT_EQ(net.server(i).store().at("empty"), Bytes{});
    EXPECT_GE(net.server(i).stats().blocks_staged, 9u);  // 8 + 1 empty block
  }
  EXPECT_EQ(net.client->stats().blocks_multicast, 9u);
}

TEST(Replfs, WritesAreSerializedAndApplyInIssueOrder) {
  ReplfsNet net{3};
  int committed = 0;
  for (int i = 0; i < 6; ++i) {
    net.client->write("hot", to_bytes("version " + std::to_string(i)),
                      [&](Status s) { committed += s.is_ok() ? 1 : 0; });
  }
  EXPECT_EQ(net.client->pending_writes(), 6u);  // one head, five queued
  net.run(duration::seconds(15));

  ASSERT_EQ(committed, 6);
  ASSERT_EQ(net.client->committed_log().size(), 6u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GT(net.client->committed_log()[i].commit_id,
              net.client->committed_log()[i - 1].commit_id);
  }
  // Serialized writes: the final state everywhere is the last version.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(to_string(net.server(i).store().at("hot")), "version 5");
    EXPECT_EQ(net.server(i).stats().commits_applied, 6u);
  }
}

TEST(Replfs, ReadBackFromEachReplica) {
  ReplfsNet net{3};
  bool written = false;
  net.client->write("k", to_bytes("v"), [&](Status s) { written = s.is_ok(); });
  net.run(duration::seconds(5));
  ASSERT_TRUE(written);

  int found = 0, missing = 0;
  for (const NodeId server : net.server_ids) {
    net.client->read(server, "k", [&](bool ok, const Bytes& value) {
      found += (ok && to_string(value) == "v") ? 1 : 0;
    });
    net.client->read(server, "nope", [&](bool ok, const Bytes&) {
      missing += ok ? 0 : 1;
    });
  }
  net.run(duration::seconds(2));
  EXPECT_EQ(found, 3);
  EXPECT_EQ(missing, 3);
}

TEST(Replfs, OfflineReplicaWalkedBackThroughTargetedRepair) {
  ReplfsNet net{3};
  // Replica 1 is link-dead while the blocks multicast flies past it.
  net.lan.world.kill(net.lan.nodes[1]);
  Status result{ErrorCode::kCancelled, "pending"};
  net.client->write("repaired", to_bytes("made it anyway"),
                    [&](Status s) { result = s; });
  net.run(duration::seconds(1));
  EXPECT_EQ(result.code(), ErrorCode::kCancelled);  // still pending
  net.lan.world.revive(net.lan.nodes[1]);
  net.run(duration::seconds(10));

  ASSERT_TRUE(result.is_ok()) << result.to_string();
  // The revived replica never saw the multicast: its prepare answered with
  // the missing-block list and the client repaired over reliable unicast.
  EXPECT_GE(net.server(1).stats().votes_missing, 1u);
  EXPECT_GE(net.client->stats().blocks_repaired, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(to_string(net.server(i).store().at("repaired")), "made it anyway");
  }
}

TEST(Replfs, CrashedReplicaRehydratesStoreFromWal) {
  ReplfsNet net{3};
  int committed = 0;
  for (int i = 0; i < 3; ++i) {
    net.client->write("key-" + std::to_string(i), to_bytes("value-" + std::to_string(i)),
                      [&](Status s) { committed += s.is_ok() ? 1 : 0; });
  }
  net.run(duration::seconds(10));
  ASSERT_EQ(committed, 3);
  const std::uint64_t healthy_digest = net.server(0).digest();

  // Fail-stop replica 0: services die, the WAL's StableStorage survives.
  net.lan.runtime(0).crash();
  net.run(duration::seconds(1));
  net.lan.runtime(0).restart();
  net.run(duration::seconds(1));

  Server& reborn = net.server(0);
  EXPECT_GT(reborn.stats().wal_records_replayed, 0u);
  EXPECT_EQ(reborn.digest(), healthy_digest);
  EXPECT_EQ(reborn.store().size(), 3u);
  EXPECT_EQ(to_string(reborn.store().at("key-1")), "value-1");
  EXPECT_EQ(reborn.indoubt_count(), 0u);

  // And it is a full protocol participant again.
  bool again = false;
  net.client->write("key-3", to_bytes("value-3"), [&](Status s) { again = s.is_ok(); });
  net.run(duration::seconds(5));
  ASSERT_TRUE(again);
  EXPECT_EQ(to_string(reborn.store().at("key-3")), "value-3");
}

TEST(Replfs, InDoubtTransactionSettledByLateCommitExactlyOnce) {
  // Replica with a Begin+Put forced into its log but no Commit: the
  // in-doubt state a crash-between-vote-and-commit leaves behind.
  testing::Lan lan{2};
  constexpr std::uint64_t kTx = 0x42;
  {
    recovery::WriteAheadLog wal{lan.runtime(0).storage("replfs-wal")};
    wal.append(recovery::LogKind::kBegin, kTx);
    wal.append(recovery::LogKind::kPut, kTx, "indoubt-key",
               serialize::Value(to_bytes("indoubt-value")));
  }
  lan.runtime(0).add_service<Server>("replfs", [](node::Runtime& rt) {
    return std::make_unique<Server>(rt.transport(), rt.net_stack(),
                                    rt.storage("replfs-wal"));
  });
  Server& server = *lan.runtime(0).service<Server>("replfs");
  EXPECT_EQ(server.stats().indoubt_recovered, 1u);
  EXPECT_EQ(server.indoubt_count(), 1u);
  EXPECT_EQ(server.store().count("indoubt-key"), 0u);  // not applied yet

  // Node 1 plays the re-driving coordinator: send the commit twice.
  int acks = 0;
  lan.transport(1).set_receiver(transport::ports::kReplfs,
                                [&](NodeId, const Bytes& payload) {
                                  serialize::Reader r{payload};
                                  if (r.u8().value_or(0) == kKindCommitAck) acks++;
                                });
  const auto send_commit = [&] {
    serialize::Writer w;
    w.u8(kKindCommit);
    w.varint(kTx);
    lan.transport(1).send(lan.nodes[0], transport::ports::kReplfs, std::move(w).take());
  };
  send_commit();
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(server.indoubt_count(), 0u);
  EXPECT_EQ(to_string(server.store().at("indoubt-key")), "indoubt-value");
  EXPECT_EQ(server.stats().commits_applied, 1u);
  EXPECT_EQ(acks, 1);

  // The duplicate re-acks without re-applying: exactly-once.
  send_commit();
  lan.sim.run_until(duration::seconds(4));
  EXPECT_EQ(server.stats().commits_applied, 1u);
  EXPECT_EQ(server.stats().duplicate_commits, 1u);
  EXPECT_EQ(acks, 2);
}

TEST(Replfs, HostileTrafficIsCountedAndStagingIsBounded) {
  ReplfsConfig cfg;
  cfg.max_staged_blocks = 8;
  testing::Lan lan{2};
  lan.runtime(0).add_service<Server>("replfs", [cfg](node::Runtime& rt) {
    return std::make_unique<Server>(rt.transport(), rt.net_stack(),
                                    rt.storage("replfs-wal"), cfg);
  });
  Server& server = *lan.runtime(0).service<Server>("replfs");
  net::Stack& attacker = lan.runtime(1).net_stack();

  // Undecodable data frames and control messages are dropped, counted.
  ASSERT_TRUE(attacker.broadcast_frame(net::Proto::kReplfsData, Bytes{}).is_ok());
  ASSERT_TRUE(
      attacker.broadcast_frame(net::Proto::kReplfsData, Bytes{0xff, 0x01}).is_ok());
  lan.transport(1).send(lan.nodes[0], transport::ports::kReplfs, Bytes{});
  lan.sim.run_until(duration::seconds(1));
  EXPECT_GE(server.stats().malformed_dropped, 3u);

  // A stray-block flood cannot grow staging past the cap.
  for (std::uint64_t commit = 1; commit <= 30; ++commit) {
    serialize::Writer w;
    w.varint(commit);
    w.varint(0);  // block index
    w.str("stray");
    w.bytes(to_bytes("x"));
    ASSERT_TRUE(
        attacker.broadcast_frame(net::Proto::kReplfsData, std::move(w).take()).is_ok());
  }
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(server.stats().blocks_staged, 30u);
  EXPECT_GE(server.stats().blocks_evicted, 22u);  // all but the cap's worth

  // The repair path stages under the same cap: the same flood sent as
  // reliable kBlocks messages, one block per commit, from any transport
  // peer.
  const ServerStats before = server.stats();
  for (std::uint64_t commit = 101; commit <= 130; ++commit) {
    serialize::Writer w;
    w.u8(kKindBlocks);
    w.varint(commit);
    w.varint(1);  // block count
    w.varint(0);  // block index
    w.str("stray");
    w.bytes(to_bytes("x"));
    lan.transport(1).send(lan.nodes[0], transport::ports::kReplfs, std::move(w).take());
  }
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(server.stats().blocks_staged - before.blocks_staged, 30u);
  EXPECT_GE(server.stats().blocks_evicted - before.blocks_evicted, 22u);
  EXPECT_LE(server.stats().blocks_staged - server.stats().blocks_evicted,
            cfg.max_staged_blocks);
  EXPECT_TRUE(server.store().empty());  // nothing ever committed
}

// Commit ids keep the client's node id and its write sequence apart. With
// the node id at bit 20, client 4's write 2^22 + 1 would repeat its first
// id and its write 2^20 would take node 5's first id; a server answers a
// repeated id from its committed set, so the client would see a write
// committed that no replica applied.
TEST(Replfs, CommitIdsOfDistinctWritesNeverMeet) {
  const auto first = make_commit_id(NodeId{4}, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first, make_commit_id(NodeId{4}, (std::uint64_t{1} << 22) + 1));
  const auto later = make_commit_id(NodeId{4}, std::uint64_t{1} << 20);
  ASSERT_TRUE(later.has_value());
  EXPECT_NE(later, make_commit_id(NodeId{5}, 0));
  // Past 32 bits either way there is no id: write() fails instead.
  EXPECT_TRUE(make_commit_id(NodeId{4}, (std::uint64_t{1} << 32) - 1).has_value());
  EXPECT_FALSE(make_commit_id(NodeId{4}, std::uint64_t{1} << 32).has_value());
  EXPECT_FALSE(make_commit_id(NodeId{std::uint64_t{1} << 32}, 1).has_value());
}

TEST(Replfs, WriteFailsCleanlyWhenAReplicaStaysDown) {
  ReplfsConfig cfg;
  cfg.retry_period = duration::millis(200);
  cfg.max_write_attempts = 4;
  ReplfsNet net{3, 42, cfg};
  net.lan.world.kill(net.lan.nodes[2]);  // never comes back

  Status result = Status::ok();
  net.client->write("doomed", to_bytes("nobody will ack this"),
                    [&](Status s) { result = s; });
  net.run(duration::seconds(10));

  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(net.client->stats().writes_failed, 1u);
  EXPECT_EQ(net.client->pending_writes(), 0u);
  // The abort cleaned the surviving replicas: no store entry, no in-doubt
  // transaction left behind.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(net.server(i).store().count("doomed"), 0u) << "replica " << i;
    EXPECT_EQ(net.server(i).indoubt_count(), 0u);
    EXPECT_EQ(net.server(i).stats().aborts, 1u);
  }
}

// Past the commit point the decision is commit. Replica 2 is islanded
// just after it votes yes and stays cut off well past the attempt limit,
// so no commit reaches it in time. The client keeps re-driving the commit
// instead of aborting, and after the heal all three replicas hold the
// write and the callback gets kOk.
TEST(Replfs, CommitPointOutlastsTheAttemptLimit) {
  ReplfsConfig cfg;
  cfg.retry_period = duration::millis(200);
  cfg.max_write_attempts = 3;
  ReplfsNet net{3, 42, cfg};
  net::FaultPlan faults{net.lan.world};

  Status result{ErrorCode::kCancelled, "pending"};
  net.client->write("late", to_bytes("held past the commit point"),
                    [&](Status s) { result = s; });
  for (int step = 0; step < 100'000 && net.server(2).stats().votes_yes == 0; ++step) {
    net.run(duration::micros(10));
  }
  ASSERT_EQ(net.server(2).stats().votes_yes, 1u);
  // From 1 us on, after the vote left: 2 s against a 3 x 200 ms limit.
  faults.partition(1, {net.lan.nodes[2]}, duration::seconds(2));

  net.run(duration::millis(1500));
  EXPECT_EQ(result.code(), ErrorCode::kCancelled) << result.to_string();
  EXPECT_EQ(net.server(2).store().count("late"), 0u);
  EXPECT_GT(net.client->stats().retry_rounds, 3u);

  net.run(duration::seconds(8));
  ASSERT_TRUE(result.is_ok()) << result.to_string();
  EXPECT_EQ(net.client->stats().writes_committed, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(net.server(i).store().count("late"), 1u) << "replica " << i;
    EXPECT_EQ(net.server(i).stats().aborts, 0u) << "replica " << i;
    EXPECT_EQ(net.server(i).indoubt_count(), 0u) << "replica " << i;
    EXPECT_EQ(net.server(i).digest(), net.server(0).digest()) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Chaos soak: the flagship acceptance run. Every write the client acked
// must be present on every replica, through crash/restart and partitions.

constexpr std::size_t kSoakServers = 5;
constexpr Time kSoakQuiesce = duration::seconds(15);  // the last write goes out at 14.4 s

// Arms a soak's fault plan, whose lifecycle hooks crash and restart the
// servers' Runtimes.
using ReplfsFaults = std::function<void(net::FaultPlan&, testing::Lan&)>;

// One full soak: 25 writes over 15 s under the plan `script` arms. Checks
// what every plan that heals must keep: every write commits, and every
// acked write is durably applied on every replica. Returns the digest dump.
std::string replfs_soak(std::uint64_t seed, const ReplfsFaults& script,
                        net::FaultStats& stats) {
  constexpr int kWrites = 25;
  ReplfsNet net{kSoakServers, seed};
  testing::Lan& lan = net.lan;

  net::FaultPlan faults{lan.world, seed ^ 0xfa157};
  std::map<NodeId, std::size_t> index;
  for (std::size_t i = 0; i < kSoakServers; ++i) index[lan.nodes[i]] = i;
  faults.set_lifecycle_hooks(
      [&](NodeId id) { lan.runtime(index.at(id)).crash(); },
      [&](NodeId id) { lan.runtime(index.at(id)).restart(); });
  script(faults, lan);

  // Issue writes over time so faults land mid-protocol, not before or
  // after the workload. Values span one to four blocks; one hot key is
  // rewritten to pin apply-in-order.
  std::map<std::string, Bytes> expected;
  int resolved = 0, failed = 0;
  for (int i = 0; i < kWrites; ++i) {
    const std::string key = (i % 5 == 4) ? "hot" : "file-" + std::to_string(i);
    Bytes value(static_cast<std::size_t>(1 + (i % 4) * 600), 0);
    for (std::size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<std::uint8_t>(i * 31 + b);
    }
    expected[key] = value;
    lan.sim.schedule_after(duration::millis(600 * i), [&, key, value] {
      net.client->write(key, value, [&](Status s) {
        resolved++;
        failed += s.is_ok() ? 0 : 1;
      });
    });
  }

  while (resolved < kWrites && lan.sim.now() < duration::seconds(240)) {
    lan.sim.run_until(lan.sim.now() + duration::seconds(1));
  }
  lan.sim.run_until(lan.sim.now() + duration::seconds(2));  // settle late acks

  EXPECT_EQ(resolved, kWrites) << "writes stuck under chaos";
  EXPECT_EQ(failed, 0) << "all faults heal, so every write must commit";

  // THE guarantee: every acked write is durably applied on every replica.
  for (std::size_t i = 0; i < kSoakServers; ++i) {
    const Server& server = net.server(i);
    EXPECT_EQ(server.store(), expected) << "replica " << i << " diverged";
    EXPECT_EQ(server.indoubt_count(), 0u) << "replica " << i;
    EXPECT_EQ(server.digest(), net.server(0).digest());
  }
  EXPECT_EQ(net.client->committed_log().size(), static_cast<std::size_t>(kWrites));
  // Reliable-transport hygiene under faults: nothing malformed anywhere.
  for (std::size_t i = 0; i <= kSoakServers; ++i) {
    EXPECT_EQ(lan.transport(i).stats().malformed_dropped, 0u) << "node " << i;
  }

  stats = faults.stats();
  std::ostringstream dump;
  dump << lan.sim.digest() << ":" << lan.sim.now() << "|c:" << net.client->digest();
  for (std::size_t i = 0; i < kSoakServers; ++i) {
    dump << "|" << net.server(i).digest() << "," << net.server(i).stats().commits_applied
         << "," << net.server(i).stats().duplicate_commits << ","
         << net.server(i).stats().commit_nacks << ","
         << net.server(i).stats().indoubt_recovered;
  }
  dump << "|f:" << stats.crashes << "," << stats.burst_drops << "," << stats.partition_drops
       << "," << stats.duplicates_injected;
  return dump.str();
}

// The soak's hand-written plan: every channel fault, three crashes and
// two partitions.
void composed_replfs_faults(net::FaultPlan& faults, testing::Lan& lan) {
  faults.burst_loss(lan.medium, net::BurstLossSpec{0.01, 0.2, 0.0, 0.5});
  faults.duplication(0.05, duration::millis(50));
  faults.jitter(0.10, duration::millis(50));  // < initial_rto
  faults.crash(duration::seconds(4), lan.nodes[1], duration::seconds(2));
  faults.crash(duration::seconds(9), lan.nodes[3], duration::seconds(3));
  faults.crash(duration::seconds(15), lan.nodes[1], duration::seconds(2));
  faults.partition(duration::seconds(6), {lan.nodes[2]}, duration::seconds(2));
  faults.partition(duration::seconds(12), {lan.nodes[0], lan.nodes[4]},
                   duration::seconds(2));
}

// One full soak under the composed plan, whose crashes must all happen.
std::string replfs_chaos_run(std::uint64_t seed) {
  net::FaultStats stats;
  const std::string dump = replfs_soak(seed, composed_replfs_faults, stats);
  EXPECT_GE(stats.crashes, 3u);
  EXPECT_GE(stats.restarts, 3u);
  return dump;
}

TEST(ReplfsChaos, AckedWritesSurviveCrashRestartAndPartitions) {
  replfs_chaos_run(0xd00d);
}

TEST(ReplfsChaos, TwinRunsAreByteIdentical) {
  const std::string a = replfs_chaos_run(0xfeed);
  const std::string b = replfs_chaos_run(0xfeed);
  EXPECT_EQ(a, b) << "same seed, same faults: the soak must be deterministic";
  const std::string c = replfs_chaos_run(0xfeed + 1);
  EXPECT_NE(a, c) << "different seed should explore a different trajectory";
}

// Seeded random plans (test_helpers.hpp): partitions, burst loss,
// duplication, jitter, pauses of any node and crash/restart cycles of the
// servers, all healed before the last write. Every acked write must stay
// durable on every replica under each.
TEST(ReplfsChaos, RandomFaultPlansKeepAckedWritesDurable) {
  for (std::uint64_t plan = 1; plan <= 8; ++plan) {
    std::string armed;
    net::FaultStats stats;
    (void)replfs_soak(
        0x7e51 + plan,
        [&armed, plan](net::FaultPlan& faults, testing::Lan& lan) {
          const std::vector<NodeId> servers(lan.nodes.begin(),
                                            lan.nodes.begin() + kSoakServers);
          armed = testing::arm_random_faults(lan.sim, faults, plan, lan.medium, lan.nodes,
                                             servers, kSoakQuiesce, duration::millis(100));
        },
        stats);
    if (HasFailure()) {
      ADD_FAILURE() << "plan " << plan << ": " << armed;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Real sockets: the identical client/server pair over loopback UDP.

TEST(ReplfsUdp, CommitAndReadBackOverLoopback) {
  const auto base = static_cast<std::uint16_t>(26000 + (getpid() % 1500) * 8);
  const std::vector<NodeId> everyone{NodeId{1}, NodeId{2}, NodeId{3}};
  const std::vector<NodeId> servers{NodeId{1}, NodeId{2}};
  net::UdpStackConfig ncfg;
  ncfg.port_base = base;
  ncfg.peers = everyone;
  net::UdpStack s1{NodeId{1}, ncfg};
  net::UdpStack s2{NodeId{2}, ncfg};
  net::UdpStack s3{NodeId{3}, ncfg};
  node::StackConfig scfg;
  scfg.router = node::RouterPolicy::kFlooding;
  // No retransmission on a slow host: the datagram totals below count the
  // message flow alone.
  scfg.transport.initial_rto = duration::seconds(10);
  node::Runtime r1{s1, scfg};
  node::Runtime r2{s2, scfg};
  node::Runtime r3{s3, scfg};
  for (node::Runtime* rt : {&r1, &r2}) {
    rt->add_service<Server>("replfs", [](node::Runtime& r) {
      return std::make_unique<Server>(r.transport(), r.net_stack(),
                                      r.storage("replfs-wal"));
    });
  }
  ReplfsConfig ccfg;
  // The client's re-drive ticker fires on its period whatever a write's
  // age, and re-sends a prepare to a replica that has not voted yet. The
  // prepare count asserted below must not depend on whether a tick lands
  // in a vote phase on a slow host, and no replica here needs a re-drive
  // (the prepares ride the reliable transport).
  ccfg.retry_period = duration::seconds(2);
  Client client{r3.transport(), s3, servers, ccfg};

  const auto pump_until = [&](const std::function<bool()>& pred, Time budget) {
    const Time until = s1.now() + budget;
    while (!pred() && s1.now() < until) {
      s1.poll_once(duration::millis(1));
      s2.poll_once(duration::millis(1));
      s3.poll_once(duration::millis(1));
    }
    return pred();
  };

  const auto datagrams = [&] {
    return s1.stats().datagrams_sent + s2.stats().datagrams_sent + s3.stats().datagrams_sent;
  };

  constexpr int kWrites = 4;
  int committed = 0, failed = 0;
  for (int i = 0; i < kWrites; ++i) {
    Bytes value(static_cast<std::size_t>(200 + i * 700), static_cast<std::uint8_t>(i));
    client.write("udp-" + std::to_string(i), value,
                 [&](Status s) { (s.is_ok() ? committed : failed)++; });
  }
  ASSERT_TRUE(pump_until([&] { return committed + failed == kWrites; },
                         duration::seconds(20)));
  ASSERT_EQ(failed, 0);
  // Each replica reads a write's multicast blocks before its unicast
  // prepare, so no write needs a vote-missing repair or a second prepare.
  EXPECT_EQ(client.stats().blocks_repaired, 0u);
  EXPECT_EQ(client.stats().prepares_sent, kWrites * servers.size());

  // Datagrams per write, 2 replicas, every message one fragment:
  //   - 512-byte blocks (1, 2, 4 and 5 of them): one multicast each, or a
  //     unicast to each peer without multicast;
  //   - 2 prepares, 2 votes carrying the prepares' acks, 1 standalone ack
  //     of the first vote, 2 commits (one carries the last vote's ack),
  //     2 commit-acks carrying the commits' acks, 1 standalone ack of the
  //     first commit-ack;
  //   - the last commit-ack's ack rides on the next write's prepare, which
  //     the completion issues from inside the up-call; after the last
  //     write it goes standalone.
  const std::uint64_t blocks = 1 + 2 + 4 + 5;
  ASSERT_EQ(client.stats().blocks_multicast, blocks);
  const std::uint64_t per_block = s3.using_multicast() ? 1 : everyone.size() - 1;
  EXPECT_EQ(datagrams(), blocks * per_block + kWrites * 10 + 1);
  EXPECT_EQ(client.stats().retry_rounds, 0u);

  Server& srv1 = *r1.service<Server>("replfs");
  Server& srv2 = *r2.service<Server>("replfs");
  EXPECT_EQ(srv1.store().size(), static_cast<std::size_t>(kWrites));
  EXPECT_EQ(srv1.digest(), srv2.digest());
  EXPECT_EQ(srv1.stats().commits_applied, static_cast<std::uint64_t>(kWrites));

  // Read the replicated state back through the protocol, per replica.
  int verified = 0;
  for (const NodeId server : servers) {
    client.read(server, "udp-3", [&](bool found, const Bytes& value) {
      verified += (found && value.size() == 2300u) ? 1 : 0;
    });
  }
  ASSERT_TRUE(pump_until([&] { return verified == 2; }, duration::seconds(10)));
  // Per read: the request; the 2,305-byte response in 25 fragments of 96
  // bytes, the first carrying the request's ack; 25 standalone acks (the
  // reader sends nothing back).
  EXPECT_EQ(datagrams(), blocks * per_block + kWrites * 10 + 1 + 2 * (1 + 25 + 25));
}

}  // namespace
}  // namespace ndsm::apps::replfs
