// Tests for the sharded parallel simulation stack: a sharded
// sim::Simulator (conservative windows, ordered mailboxes, key-ordered
// execution), net::ShardMap (stripe partition) and a sharded net::World
// (digest-identical execution for any shard count and any worker count).
// The sharded World's suites keep the ShardedWorld names, which the CI
// repeat and ThreadSanitizer filters select.
// The digest-equality tests here are the contract sharding rides on: a
// sharded run is not "approximately" the single-shard run, it is
// byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/faults.hpp"
#include "net/shard_map.hpp"
#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "node/runtime.hpp"
#include "sim/simulator.hpp"

namespace ndsm {
namespace {

// --- engine ----------------------------------------------------------------

TEST(ShardedSimulator, ExecutesSameInstantEventsInKeyOrder) {
  sim::Simulator e({.shards = 1, .workers = 1, .lookahead = 10, .seed = 1});
  std::vector<int> order;
  e.schedule(0, 100, 5, 0, [&] { order.push_back(5); });
  e.schedule(0, 100, 1, 0, [&] { order.push_back(1); });
  e.schedule(0, 100, 3, 7, [&] { order.push_back(3); });
  e.schedule(0, 100, 3, 2, [&] { order.push_back(2); });
  e.run_until(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_EQ(e.stats().executed, 4u);
}

TEST(ShardedSimulator, CrossShardPostArrivesThroughTheMailbox) {
  sim::Simulator e({.shards = 2, .workers = 1, .lookahead = 100, .seed = 1});
  Time got = -1;
  e.schedule(0, 50, 1, 0, [&] {
    e.post(0, 1, e.now(0) + 100, 1, 0, [&] { got = e.now(1); });
  });
  e.run_until(1000);
  EXPECT_EQ(got, 150);
  EXPECT_EQ(e.stats().mailbox_posts, 1u);
  EXPECT_EQ(e.executed(1), 1u);
}

// Ring workload: every event records (shard, time) and posts the next hop
// to the neighboring shard. The execution trace must be identical for any
// worker count — the engine's core determinism claim.
std::vector<std::pair<std::uint32_t, Time>> run_ring(std::size_t workers) {
  sim::Simulator e({.shards = 4, .workers = workers, .lookahead = 50, .seed = 3});
  // One trace vector per shard: a shard's events run on one worker at a
  // time, with the window barrier between them, so each vector has a
  // single writer at any moment. A vector shared by all shards would be
  // appended to from several workers at once (a data race).
  std::vector<std::vector<std::pair<std::uint32_t, Time>>> per_shard(4);
  // One recursive hop chain per starting shard, tagged by key_hi so
  // same-instant arrivals in one shard stay ordered by chain id.
  std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)> hop =
      [&](std::uint32_t shard, std::uint64_t chain, std::uint64_t step) {
        per_shard[shard].push_back({shard, e.now(shard)});
        if (step >= 20) return;
        const auto next = static_cast<std::uint32_t>((shard + 1) % 4);
        e.post(shard, next, e.now(shard) + 50, chain, step,
               [&hop, next, chain, step] { hop(next, chain, step + 1); });
      };
  for (std::uint32_t s = 0; s < 4; ++s) {
    e.schedule(s, 10 + s, s, 0, [&hop, s] { hop(s, s, 0); });
  }
  e.run_until(duration::millis(10));
  // Merge after the run, in a stable order: sort by (time, shard) —
  // events themselves are unique per (shard, time) here.
  std::vector<std::pair<std::uint32_t, Time>> trace;
  for (const auto& events : per_shard) trace.insert(trace.end(), events.begin(), events.end());
  std::sort(trace.begin(), trace.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return trace;
}

TEST(ShardedSimulator, RingTraceIsWorkerCountInvariant) {
  const auto serial = run_ring(1);
  EXPECT_EQ(serial.size(), 4u * 21u);
  EXPECT_EQ(run_ring(2), serial);
  EXPECT_EQ(run_ring(8), serial);
}

TEST(ShardedSimulatorDeath, LookaheadViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Simulator e({.shards = 2, .workers = 1, .lookahead = 100, .seed = 1});
        e.schedule(0, 50, 1, 0, [&] { e.post(0, 1, e.now(0) + 1, 1, 0, [] {}); });
        e.run_until(1000);
      },
      "lookahead");
}

// --- shard map ---------------------------------------------------------------

TEST(ShardMap, StripesPartitionTheExtent) {
  const net::ShardMap map(0, 1000, 100, 8);
  EXPECT_EQ(map.shards(), 8u);
  EXPECT_EQ(map.shard_of({0, 0}), 0u);
  EXPECT_EQ(map.shard_of({-5, 50}), 0u);
  EXPECT_EQ(map.shard_of({999, 0}), 7u);
  EXPECT_EQ(map.shard_of({5000, 0}), 7u);
}

TEST(ShardMap, ShardCountClampsToRangeWideStripes) {
  // A 150 m extent cannot fit two 100 m stripes: collapses to one shard.
  const net::ShardMap clamped(0, 150, 100, 8);
  EXPECT_EQ(clamped.shards(), 1u);
  // 1000 m / 100 m range fits at most 10; request 4, get 4.
  const net::ShardMap four(0, 1000, 100, 4);
  EXPECT_EQ(four.shards(), 4u);
  EXPECT_DOUBLE_EQ(four.stripe_width(), 250.0);
}

TEST(ShardMap, TransmissionsReachOnlyAdjacentStripes) {
  const net::ShardMap map(0, 1000, 100, 8);  // width 125
  EXPECT_EQ(map.shard_of({130, 0}), 1u);
  EXPECT_TRUE(map.reaches({130, 0}, 100, 0));   // 30 falls in stripe 0
  EXPECT_FALSE(map.reaches({130, 0}, 100, 2));  // 230 < 250: stays in stripe 1
  EXPECT_TRUE(map.reaches({260, 0}, 100, 2));
}

// --- sharded world -----------------------------------------------------------

struct RunOutcome {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> shard_digests;
  net::WorldStats totals;
  std::size_t shards = 0;
  std::uint64_t mailbox_posts = 0;
  // Per-node delivery log: (delivery time, sender id, was_broadcast).
  std::vector<std::vector<std::tuple<Time, std::uint64_t, bool>>> logs;
};

constexpr Time kLatticeRun = duration::millis(30);

// Channel faults drawn the way arm_random_faults (tests/test_helpers.hpp)
// draws an app soak's, scaled to the lattice's 30 ms run: up to two
// windows that each split off a random island of `nodes`, starting
// between 1 and 12 ms and lasting 0.4 to 9 ms, burst loss on `medium`,
// and duplication and jitter late by at most 500 us.
net::ChannelFaults random_channel_faults(std::uint64_t seed, const std::vector<NodeId>& nodes,
                                         MediumId medium) {
  constexpr Time kMaxDelay = duration::micros(500);
  Rng rng{seed};
  net::ChannelFaults faults;
  for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
    std::vector<NodeId> island;
    for (const NodeId n : nodes) {
      if (rng.bernoulli(0.3)) island.push_back(n);
    }
    const Time start = rng.uniform_int(duration::millis(1), kLatticeRun * 4 / 10);
    const Time length = rng.uniform_int(duration::micros(400), kLatticeRun * 3 / 10);
    faults.partitions.push_back({island, start, start + length});
  }
  faults.bursts[medium] = net::BurstLossSpec{rng.uniform(0.001, 0.05), rng.uniform(0.1, 0.5),
                                             rng.uniform(0.0, 0.02), rng.uniform(0.2, 0.8)};
  faults.duplicate_p = rng.uniform(0.0, 0.1);
  faults.duplicate_max = rng.uniform_int(1, kMaxDelay);
  faults.jitter_p = rng.uniform(0.0, 0.2);
  faults.jitter_max = rng.uniform_int(1, kMaxDelay);
  return faults;
}

// A cols x rows lattice (20 m spacing, 25 m range: 4-connected) where
// every node broadcasts three staggered rounds and replies to a subset of
// broadcasts with a unicast — exercising local fan-out, cross-shard
// fan-out, and cross-shard unicast from inside handlers. With `chaos`, a
// fault script plus scripted kill/revive cycles runs on top: 5% flat
// loss, a partition window splitting off the nodes left of the middle,
// delay jitter and, with `bursts_and_duplicates`, burst loss and frame
// duplication. A nonzero `random_plan` replaces that script with
// random_channel_faults(random_plan).
RunOutcome run_lattice(std::size_t cols, std::size_t rows, std::size_t shards,
                       std::size_t workers, bool chaos, bool bursts_and_duplicates = true,
                       std::uint64_t random_plan = 0) {
  net::World w({.shards = shards, .workers = workers, .seed = 99});
  const double spacing = 20.0;
  const MediumId medium = w.add_medium(net::wifi80211(25.0, chaos ? 0.05 : 0.0));

  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < cols * rows; ++i) {
    const NodeId id = w.add_node({static_cast<double>(i % cols) * spacing,
                                  static_cast<double>(i / cols) * spacing});
    w.attach(id, medium);
    ids.push_back(id);
  }

  RunOutcome out;
  out.logs.resize(ids.size());
  for (const NodeId id : ids) {
    w.set_handler(id, net::Proto::kApp, [&w, &out, id](const net::LinkFrame& f) {
      const bool bcast = f.dst == net::kBroadcast;
      out.logs[id.value()].emplace_back(w.sim().now(w.shard_of(id)), f.src.value(), bcast);
      if (bcast && (f.src.value() + id.value()) % 5 == 0) {
        (void)w.link_send(id, f.src, net::Proto::kApp, Bytes{0x42});
      }
    });
  }

  if (chaos) {
    net::ChannelFaults faults;
    std::vector<NodeId> island;
    for (const NodeId id : ids) {
      if (w.position(id).x < spacing * static_cast<double>(cols) / 2) island.push_back(id);
    }
    faults.partitions.push_back({island, duration::millis(5), duration::millis(9)});
    faults.jitter_p = 0.2;
    faults.jitter_max = duration::micros(500);
    if (bursts_and_duplicates) {
      faults.bursts[medium] = net::BurstLossSpec{0.1, 0.4, 0.0, 0.4};
      faults.duplicate_p = 0.1;
      faults.duplicate_max = duration::micros(50);
    }
    w.set_faults(random_plan != 0 ? random_channel_faults(random_plan, ids, medium) : faults);
    for (std::size_t i = 0; i < ids.size(); i += 7) {
      w.kill_at(ids[i], duration::millis(4));
      w.revive_at(ids[i], duration::millis(12));
    }
  }

  const Bytes payload(32, 0xab);
  for (const NodeId id : ids) {
    for (int round = 0; round < 3; ++round) {
      const Time at = duration::millis(1 + static_cast<Time>(id.value() % 7)) +
                      round * duration::millis(5);
      w.schedule(id, at,
                 [&w, id, payload] { (void)w.link_broadcast(id, net::Proto::kApp, payload); });
    }
  }

  w.run_until(kLatticeRun);
  out.digest = w.digest();
  for (std::size_t s = 0; s < w.shard_count(); ++s) {
    out.shard_digests.push_back(w.shard_digest(s));
  }
  out.totals = w.stats();
  out.shards = w.shard_count();
  out.mailbox_posts = w.sim().stats().mailbox_posts;
  return out;
}

void expect_identical_workload(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.logs, b.logs);
  // Aggregate channel outcomes are sharding-invariant too, not just the
  // digest: the same frames were sent, lost, duplicated and delivered.
  EXPECT_EQ(a.totals.frames_sent, b.totals.frames_sent);
  EXPECT_EQ(a.totals.frames_delivered, b.totals.frames_delivered);
  EXPECT_EQ(a.totals.frames_lost, b.totals.frames_lost);
  EXPECT_EQ(a.totals.fault_drops, b.totals.fault_drops);
  EXPECT_EQ(a.totals.fault_duplicates, b.totals.fault_duplicates);
  EXPECT_EQ(a.totals.fault_delays, b.totals.fault_delays);
}

TEST(ShardedWorld, TwinRunsAreByteIdentical) {
  const RunOutcome a = run_lattice(8, 8, 4, 2, false);
  const RunOutcome b = run_lattice(8, 8, 4, 2, false);
  expect_identical_workload(a, b);
  EXPECT_EQ(a.shard_digests, b.shard_digests);
}

TEST(ShardedWorld, DigestInvariantAcrossWorkerCounts) {
  const RunOutcome serial = run_lattice(8, 8, 4, 1, false);
  ASSERT_EQ(serial.shards, 4u);
  EXPECT_GT(serial.totals.frames_delivered, 0u);
  for (const std::size_t workers : {2u, 8u}) {
    const RunOutcome parallel = run_lattice(8, 8, 4, workers, false);
    expect_identical_workload(serial, parallel);
    EXPECT_EQ(serial.shard_digests, parallel.shard_digests);
  }
}

TEST(ShardedWorld, DigestInvariantAcrossShardCounts) {
  const RunOutcome single = run_lattice(8, 8, 1, 1, false);
  ASSERT_EQ(single.shards, 1u);
  // One shard owns every node, so its shard digest IS the world digest —
  // the base case of the digest-merge argument (DESIGN §13).
  EXPECT_EQ(single.shard_digests[0], single.digest);
  const RunOutcome sharded = run_lattice(8, 8, 4, 2, false);
  ASSERT_EQ(sharded.shards, 4u);
  expect_identical_workload(single, sharded);
  EXPECT_GT(sharded.totals.cross_shard_transmissions, 0u);
  EXPECT_GT(sharded.mailbox_posts, 0u);
}

TEST(ShardedWorld, BoundaryStraddlingChainStaysDeterministic) {
  // A single 40-node chain along x: every cut line severs actual radio
  // links, so all traffic across the three cuts rides the mailboxes.
  const RunOutcome single = run_lattice(40, 1, 1, 1, false);
  const RunOutcome sharded = run_lattice(40, 1, 4, 8, false);
  ASSERT_EQ(sharded.shards, 4u);
  expect_identical_workload(single, sharded);
  EXPECT_GT(sharded.totals.cross_shard_transmissions, 0u);
  EXPECT_GT(sharded.mailbox_posts, 0u);
}

TEST(ShardedWorld, UnicastCrossesShards) {
  net::World w({.shards = 4, .workers = 2, .seed = 5});
  const MediumId m = w.add_medium(net::wifi80211(25.0, 0.0));
  // Two nodes astride a cut: 8 nodes spread the extent so 4 stripes fit.
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    const NodeId id = w.add_node({static_cast<double>(i) * 20.0, 0});
    w.attach(id, m);
    ids.push_back(id);
  }
  Time got = -1;
  NodeId got_src = NodeId::invalid();
  w.set_handler(ids[4], net::Proto::kApp, [&](const net::LinkFrame& f) {
    got = w.sim().now(w.shard_of(ids[4]));
    got_src = f.src;
  });
  w.schedule(ids[3], duration::millis(1), [&w, &ids] {
    ASSERT_TRUE(w.link_send(ids[3], ids[4], net::Proto::kApp, Bytes{1, 2, 3}).is_ok());
  });
  w.run_until(duration::millis(5));
  ASSERT_NE(w.shard_of(ids[3]), w.shard_of(ids[4]));
  EXPECT_EQ(got_src, ids[3]);
  EXPECT_GT(got, duration::millis(1));
  EXPECT_EQ(w.stats().cross_shard_transmissions, 1u);
  EXPECT_EQ(w.stats(ids[4]).frames_received, 1u);
}

TEST(ShardedWorld, OutOfRangeUnicastIsUnreachable) {
  net::World w({.shards = 1, .workers = 1, .seed = 5});
  const MediumId m = w.add_medium(net::wifi80211(25.0, 0.0));
  const NodeId a = w.add_node({0, 0});
  const NodeId b = w.add_node({500, 0});
  w.attach(a, m);
  w.attach(b, m);
  Status st = Status::ok();
  w.schedule(a, 1000, [&] { st = w.link_send(a, b, net::Proto::kApp, Bytes{9}); });
  w.run_until(2000);
  EXPECT_EQ(st.code(), ErrorCode::kUnreachable);
}

// The 100-node chaos soak: full fault plan plus kill/revive churn, run
// sharded at every worker count and single-sharded — every configuration
// must land on the same digest, byte for byte.
TEST(ShardedWorld, ChaosSoakDigestIdenticalAcrossShardingsAndWorkers) {
  const RunOutcome single = run_lattice(10, 10, 1, 1, true);
  EXPECT_GT(single.totals.frames_lost, 0u);
  EXPECT_GT(single.totals.fault_drops, 0u);
  EXPECT_GT(single.totals.fault_duplicates, 0u);
  EXPECT_GT(single.totals.fault_delays, 0u);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const RunOutcome sharded = run_lattice(10, 10, 4, workers, true);
    ASSERT_EQ(sharded.shards, 4u);
    expect_identical_workload(single, sharded);
  }
}

// Random channel fault plans on the chaos lattice (its flat loss and
// kill/revive cycles included): eight seeded plans, each run at shards
// {1, 4} x workers {1, 2}, must give identical per-node delivery logs and
// identical lost, dropped, duplicated and delayed counts.
TEST(ShardedWorld, RandomChannelFaultPlansAreShardAndWorkerInvariant) {
  for (std::uint64_t plan = 1; plan <= 8; ++plan) {
    const RunOutcome base = run_lattice(10, 10, 1, 1, true, true, plan);
    EXPECT_GT(base.totals.frames_delivered, 0u) << "plan " << plan;
    EXPECT_GT(base.totals.fault_drops, 0u) << "plan " << plan;
    EXPECT_GT(base.totals.fault_delays + base.totals.fault_duplicates, 0u) << "plan " << plan;
    for (const std::size_t shards : {1u, 4u}) {
      for (const std::size_t workers : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "plan " << plan << " shards=" << shards << " workers=" << workers);
        const RunOutcome run = run_lattice(10, 10, shards, workers, true, true, plan);
        EXPECT_EQ(run.shards, shards);
        expect_identical_workload(base, run);
      }
    }
  }
}

// The twin-run and cross-sharding comparisons above hold for any event
// order that every configuration shares. This pins the absolute digest of
// the chaos lattice (flat loss, lattice positions: no libm-dependent
// input), re-recorded when its loss window became burst loss.
TEST(GoldenDigest, ShardedChaosLattice) {
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t workers : {1u, 2u}) {
      const RunOutcome r = run_lattice(10, 10, shards, workers, true);
      EXPECT_EQ(r.digest, 0xbade6b616eaef4d0ULL) << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(r.totals.frames_delivered, 1069u) << "shards=" << shards << " workers=" << workers;
    }
  }
}

// The chaos lattice without burst loss and duplication, recorded when the
// partition was an x = 100 m cut and the sharded world had a fault
// script of its own. Its decisions are keyed the same way since, so the
// digest holds. frames_lost counts the medium's loss and the fault drops
// together.
TEST(GoldenDigest, ShardedCutAndJitterLattice) {
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t workers : {1u, 2u}) {
      const RunOutcome r = run_lattice(10, 10, shards, workers, true, false);
      EXPECT_EQ(r.digest, 0x449aacd421950f36ULL) << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(r.totals.frames_delivered, 1021u) << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(r.totals.fault_delays, 196u) << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(r.totals.frames_lost, 59u) << "shards=" << shards << " workers=" << workers;
    }
  }
}

// --- one fault model, on one shard and many --------------------------------------

// What a lattice run delivered, and what its channel did.
struct ModelRun {
  // (receiver, sender, the sender's frame counter, arrival time), sorted.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, Time>> deliveries;
  std::uint64_t lost = 0;     // the medium's own loss
  std::uint64_t dropped = 0;  // partitions and burst loss
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
};

// An 8 x 8 lattice (20 m spacing, 25 m range) with 5% flat loss. Every
// node broadcasts four rounds and sends four unicasts to its right (or,
// in the last column, left) neighbour, all from timers, each carrying
// the sender's frame counter. `at(i, t, fn)` schedules node i's sends.
constexpr std::size_t kModelSide = 8;
constexpr std::uint64_t kModelSeed = 31;

Vec2 model_position(std::size_t i) {
  return {static_cast<double>(i % kModelSide) * 20.0, static_cast<double>(i / kModelSide) * 20.0};
}

Bytes counter_bytes(std::uint64_t n) {
  Bytes b(8);
  for (std::size_t k = 0; k < 8; ++k) b[k] = static_cast<std::uint8_t>(n >> (8 * k));
  return b;
}

std::uint64_t counter_of(const Bytes& b) {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < 8; ++k) n |= static_cast<std::uint64_t>(b[k]) << (8 * k);
  return n;
}

template <class At, class Broadcast, class Send>
void script_model_traffic(At at, Broadcast broadcast, Send send) {
  for (std::size_t i = 0; i < kModelSide * kModelSide; ++i) {
    const std::size_t peer = i % kModelSide + 1 < kModelSide ? i + 1 : i - 1;
    for (int round = 0; round < 4; ++round) {
      // Broadcasts on the 500 us grid, unicasts 250 us off it: no node
      // ever sends twice in one instant.
      const Time base = duration::millis(1) + round * duration::millis(3);
      at(i, base + static_cast<Time>(i % 5) * 500, [=] { broadcast(i); });
      at(i, base + 250 + static_cast<Time>(i % 3) * 500, [=] { send(i, peer); });
    }
  }
}

// The fault plan of the World run: a partition window splitting off the
// left half, burst loss, duplication and jitter.
void script_model_faults(net::FaultPlan& faults, MediumId medium) {
  std::vector<NodeId> island;
  for (std::size_t i = 0; i < kModelSide * kModelSide; ++i) {
    if (i % kModelSide < kModelSide / 2) island.emplace_back(i);
  }
  faults.partition(duration::millis(4), island, duration::millis(3));
  faults.burst_loss(medium, net::BurstLossSpec{0.2, 0.3, 0.0, 0.6});
  faults.duplication(0.1, duration::micros(200));
  faults.jitter(0.2, duration::micros(500));
}

ModelRun run_model_world(net::ChannelFaults& script) {
  sim::Simulator sim{kModelSeed};
  net::World world{sim};
  const MediumId medium = world.add_medium(net::wifi80211(25.0, 0.05));
  ModelRun run;
  std::vector<std::uint64_t> sent(kModelSide * kModelSide, 0);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const NodeId id = world.add_node(model_position(i));
    world.attach(id, medium);
    world.set_handler(id, net::Proto::kApp, [&run, &sim, id](const net::LinkFrame& f) {
      run.deliveries.emplace_back(id.value(), f.src.value(), counter_of(f.payload()), sim.now());
    });
  }
  net::FaultPlan faults{world, 0x5eed};
  script_model_faults(faults, medium);
  script = faults.channel();
  script_model_traffic(
      [&sim](std::size_t, Time t, std::function<void()> fn) { sim.schedule_at(t, std::move(fn)); },
      [&](std::size_t i) {
        (void)world.link_broadcast(NodeId{i}, net::Proto::kApp, counter_bytes(sent[i]++));
      },
      [&](std::size_t i, std::size_t peer) {
        (void)world.link_send(NodeId{i}, NodeId{peer}, net::Proto::kApp,
                              counter_bytes(sent[i]++));
      });
  sim.run_until(duration::millis(20));
  const net::WorldStats& s = world.stats();
  run.lost = s.frames_lost - s.fault_drops;
  run.dropped = s.fault_drops;
  run.duplicated = s.fault_duplicates;
  run.delayed = s.fault_delays;
  std::sort(run.deliveries.begin(), run.deliveries.end());
  return run;
}

ModelRun run_model_sharded(const net::ChannelFaults& script, std::size_t shards,
                           std::size_t workers) {
  net::World w({.shards = shards, .workers = workers, .seed = kModelSeed});
  const MediumId medium = w.add_medium(net::wifi80211(25.0, 0.05));
  // One log and one counter per node: only its owner shard touches them.
  std::vector<ModelRun> logs(kModelSide * kModelSide);
  std::vector<std::uint64_t> sent(logs.size(), 0);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const NodeId id = w.add_node(model_position(i));
    w.attach(id, medium);
    w.set_handler(id, net::Proto::kApp, [&w, &logs, id](const net::LinkFrame& f) {
      logs[id.value()].deliveries.emplace_back(id.value(), f.src.value(),
                                               counter_of(f.payload()),
                                               w.sim().now(w.shard_of(id)));
    });
  }
  w.set_faults(script);
  script_model_traffic(
      [&w](std::size_t i, Time t, std::function<void()> fn) { w.schedule(NodeId{i}, t, fn); },
      [&](std::size_t i) {
        (void)w.link_broadcast(NodeId{i}, net::Proto::kApp, counter_bytes(sent[i]++));
      },
      [&](std::size_t i, std::size_t peer) {
        (void)w.link_send(NodeId{i}, NodeId{peer}, net::Proto::kApp, counter_bytes(sent[i]++));
      });
  w.run_until(duration::millis(20));
  EXPECT_EQ(w.shard_count(), shards);
  ModelRun run;
  for (const ModelRun& log : logs) {
    run.deliveries.insert(run.deliveries.end(), log.deliveries.begin(), log.deliveries.end());
  }
  std::sort(run.deliveries.begin(), run.deliveries.end());
  const net::WorldStats t = w.stats();
  run.lost = t.frames_lost - t.fault_drops;
  run.dropped = t.fault_drops;
  run.duplicated = t.fault_duplicates;
  run.delayed = t.fault_delays;
  return run;
}

// One fault model: the same lattice, seed and fault script on a one-shard
// World (through a FaultPlan) and on sharded Worlds (through the plan's
// channel script) take every loss, drop, jitter and duplicate decision
// alike, at any shard and worker count.
TEST(ShardedWorld, EvaluatesTheSameFaultPlanAsWorld) {
  net::ChannelFaults script;
  const ModelRun serial = run_model_world(script);
  EXPECT_GT(serial.lost, 0u);
  EXPECT_GT(serial.dropped, 0u);
  EXPECT_GT(serial.duplicated, 0u);
  EXPECT_GT(serial.delayed, 0u);
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t workers : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards << " workers=" << workers);
      const ModelRun sharded = run_model_sharded(script, shards, workers);
      EXPECT_EQ(sharded.deliveries, serial.deliveries);
      EXPECT_EQ(sharded.lost, serial.lost);
      EXPECT_EQ(sharded.dropped, serial.dropped);
      EXPECT_EQ(sharded.duplicated, serial.duplicated);
      EXPECT_EQ(sharded.delayed, serial.delayed);
    }
  }
}

// --- fan-out property ----------------------------------------------------------

// A random layout for the fan-out property. Each cluster is 600 m square
// and centred on its origin, so half its coordinates are negative. Half
// the nodes sit on a 5 m lattice: on cell edges of both media (cells are
// range-sized, 25 m and 60 m) and, for odd layouts, on every stripe edge
// (anchors at x = +-300 make the extent 600 m, so 4 and 8 stripes cut at
// multiples of 75 m). A partner placed at an exact-range offset from a
// lattice node makes receivers at exactly range_m. Even layouts add a
// second cluster 1e7 m away on both axes, about 1e11 cells from the first.
struct FanoutLayout {
  static constexpr std::array<double, 2> kRanges{25.0, 60.0};
  std::vector<Vec2> pos;
  std::vector<std::vector<std::size_t>> media;  // medium indices, per node
  std::vector<bool> killed;
};

FanoutLayout make_fanout_layout(std::uint64_t seed) {
  FanoutLayout l;
  Rng rng(seed);
  const bool far_cluster = seed % 2 == 0;
  const std::array<Vec2, 7> exact_offsets{
      {{25, 0}, {0, -25}, {15, 20}, {-20, -15}, {60, 0}, {36, 48}, {-48, 36}}};
  const auto place_cluster = [&](Vec2 origin) {
    l.pos.push_back(origin + Vec2{-300, 0});
    l.pos.push_back(origin + Vec2{300, 0});
    for (int i = 0; i < 100; ++i) {
      if (rng.bernoulli(0.5)) {
        l.pos.push_back(origin + Vec2{rng.uniform(-300, 300), rng.uniform(-300, 300)});
        continue;
      }
      const Vec2 lattice{5.0 * static_cast<double>(rng.uniform_int(-50, 50)),
                         5.0 * static_cast<double>(rng.uniform_int(-50, 50))};
      l.pos.push_back(origin + lattice);
      if (rng.bernoulli(0.5)) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(0, exact_offsets.size() - 1));
        l.pos.push_back(origin + lattice + exact_offsets[k]);
      }
    }
  };
  place_cluster({0, 0});
  if (far_cluster) place_cluster({1e7, -1e7});
  for (std::size_t i = 0; i < l.pos.size(); ++i) {
    std::vector<std::size_t> attached;
    if (rng.bernoulli(0.7)) attached.push_back(0);
    if (rng.bernoulli(0.5)) attached.push_back(1);
    l.media.push_back(attached);
    l.killed.push_back(rng.bernoulli(0.1));
  }
  return l;
}

using Reception = std::tuple<std::uint64_t, std::size_t, std::uint64_t>;  // src, medium, dst

// Every node broadcasts once on all its media; returns what arrived.
std::vector<Reception> run_fanout(const FanoutLayout& l, std::size_t shards, std::size_t& got) {
  net::World w({.shards = shards, .workers = shards > 1 ? 2u : 1u, .seed = 17});
  std::vector<MediumId> media;
  for (const double range : FanoutLayout::kRanges) {
    media.push_back(w.add_medium(net::wifi80211(range, 0.0)));
  }
  // One log per receiver: a receiver's handler runs only on its owner
  // shard, so no two workers ever append to the same log.
  std::vector<std::vector<Reception>> logs(l.pos.size());
  for (std::size_t i = 0; i < l.pos.size(); ++i) {
    const NodeId id = w.add_node(l.pos[i]);
    for (const std::size_t m : l.media[i]) w.attach(id, media[m]);
    w.set_handler(id, net::Proto::kApp, [&logs, id](const net::LinkFrame& f) {
      logs[id.value()].emplace_back(f.src.value(), f.medium.value(), id.value());
    });
    if (l.killed[i]) w.kill_at(id, duration::millis(1));
    w.schedule(id, duration::millis(2) + static_cast<Time>(i) * 10,
               [&w, id] { (void)w.link_broadcast(id, net::Proto::kApp, Bytes{0x5}); });
  }
  w.run_until(duration::millis(10));
  got = w.shard_count();
  std::vector<Reception> all;
  for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
  std::sort(all.begin(), all.end());
  return all;
}

// Every broadcast reaches exactly the alive nodes within range on each of
// the sender's media, as a brute-force scan finds them, whatever the
// layout (make_fanout_layout) and the shard count.
TEST(ShardedWorld, BroadcastReachesExactlyTheNodesInRange) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FanoutLayout l = make_fanout_layout(seed);
    std::vector<Reception> expected;
    std::size_t at_exact_range = 0;
    for (std::size_t s = 0; s < l.pos.size(); ++s) {
      if (l.killed[s]) continue;
      for (const std::size_t m : l.media[s]) {
        const double range = FanoutLayout::kRanges[m];
        for (std::size_t d = 0; d < l.pos.size(); ++d) {
          if (d == s || l.killed[d]) continue;
          if (std::find(l.media[d].begin(), l.media[d].end(), m) == l.media[d].end()) continue;
          const double dist = distance(l.pos[s], l.pos[d]);
          if (dist > range) continue;
          expected.emplace_back(s, m, d);
          if (dist == range) at_exact_range++;
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_GT(at_exact_range, 0u) << "seed " << seed;
    for (const std::size_t shards : {1u, 4u, 8u}) {
      std::size_t got_shards = 0;
      const std::vector<Reception> got = run_fanout(l, shards, got_shards);
      EXPECT_EQ(got_shards, shards) << "seed " << seed;
      EXPECT_EQ(got, expected) << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardedWorld, KillAndReviveAreDigestVisible) {
  // Same workload, one run with a scripted crash window: the digests must
  // differ (deliveries were suppressed while down) — liveness is part of
  // the observable execution, not a side channel.
  net::World quiet({.shards = 2, .workers = 1, .seed = 7});
  net::World churn({.shards = 2, .workers = 1, .seed = 7});
  for (net::World* w : {&quiet, &churn}) {
    const MediumId m = w->add_medium(net::wifi80211(25.0, 0.0));
    std::vector<NodeId> ids;
    for (int i = 0; i < 6; ++i) {
      const NodeId id = w->add_node({static_cast<double>(i) * 20.0, 0});
      w->attach(id, m);
      ids.push_back(id);
    }
    for (const NodeId id : ids) {
      for (int round = 0; round < 4; ++round) {
        w->schedule(id, duration::millis(1 + round * 2), [w, id] {
          (void)w->link_broadcast(id, net::Proto::kApp, Bytes{0x1});
        });
      }
    }
  }
  churn.kill_at(NodeId{2}, duration::millis(2));
  churn.revive_at(NodeId{2}, duration::millis(6));
  quiet.run_until(duration::millis(10));
  churn.run_until(duration::millis(10));
  EXPECT_NE(quiet.digest(), churn.digest());
  EXPECT_LT(churn.stats().frames_delivered, quiet.stats().frames_delivered);
}

// --- one-shard-only features on a sharded World ---------------------------------

// A sharded World of two nodes 100 m apart on one 25 m wireless medium,
// sealed when `seal` is set.
struct SmallSharded {
  explicit SmallSharded(bool seal) : w({.shards = 2, .workers = 1, .seed = 1}) {
    medium = w.add_medium(net::wifi80211(25.0, 0.0));
    for (const double x : {0.0, 100.0}) w.attach(w.add_node({x, 0}), medium);
    if (seal) w.seal();
  }
  net::World w;
  MediumId medium;
};

TEST(ShardedWorldDeath, WiredMediaAbort) {
  EXPECT_DEATH(SmallSharded(false).w.add_medium(net::ethernet100()), "wireless media only");
}

TEST(ShardedWorldDeath, MobilityAborts) {
  EXPECT_DEATH((SmallSharded(true).w.set_position(NodeId{0}, {5, 0})), "mobility");
  EXPECT_DEATH((SmallSharded(true).w.set_medium_range(MediumId{0}, 30)), "set_medium_range");
  EXPECT_DEATH((SmallSharded(false).w.move_linear(NodeId{0}, {50, 0}, 1.0)), "mobility");
}

TEST(ShardedWorldDeath, FiniteBatteriesAndDeathHandlersAbort) {
  EXPECT_DEATH((SmallSharded(false).w.add_node({10, 0}, net::Battery{5.0})), "finite battery");
  EXPECT_DEATH((SmallSharded(false).w.set_battery(NodeId{1}, net::Battery{5.0})),
               "finite battery");
  EXPECT_DEATH(SmallSharded(false).w.set_death_handler([](NodeId) {}), "set_death_handler");
}

TEST(ShardedWorldDeath, FaultInjectorAborts) {
  EXPECT_DEATH(
      {
        SmallSharded small(true);
        net::FaultPlan plan{small.w};
      },
      "FaultInjector");
}

TEST(ShardedWorldDeath, LayeredStacksAbort) {
  EXPECT_DEATH(
      {
        SmallSharded small(false);
        net::WorldStack stack(small.w, NodeId{0});
      },
      "WorldStack");
  EXPECT_DEATH(
      {
        SmallSharded small(false);
        node::Runtime runtime(small.w, NodeId{0});
      },
      "WorldStack");
  EXPECT_DEATH((void)SmallSharded(true).w.neighbors(NodeId{0}), "neighbors");
}

}  // namespace
}  // namespace ndsm
