#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/request_table.hpp"
#include "sim/simulator.hpp"

namespace ndsm::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesDuringEvents) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(1234, [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, 1234);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{9999}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> ran;
  sim.schedule_at(100, [&] { ran.push_back(1); });
  sim.schedule_at(200, [&] { ran.push_back(2); });
  sim.schedule_at(301, [&] { ran.push_back(3); });
  sim.run_until(300);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 300);  // clock advanced to the deadline exactly
  sim.run_until(400);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(300, [&] { ran = true; });
  sim.run_until(300);
  EXPECT_TRUE(ran);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(5, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(10, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, ExecutedEventCountTracks) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, RunAllRespectsMaxEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> forever = [&] {
    count++;
    sim.schedule_after(1, forever);
  };
  sim.schedule_at(0, forever);
  sim.run_all(100);
  EXPECT_EQ(count, 100);
}

TEST(PeriodicTimer, FiresRepeatedly) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, 100, [&] { fires++; }};
  timer.start();
  sim.run_until(1000);
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimer, InitialDelayOverride) {
  Simulator sim;
  std::vector<Time> at;
  PeriodicTimer timer{sim, 100, [&] { at.push_back(sim.now()); }};
  timer.start(10);
  sim.run_until(250);
  EXPECT_EQ(at, (std::vector<Time>{10, 110, 210}));
}

TEST(PeriodicTimer, StopHalts) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, 100, [&] { fires++; }};
  timer.start();
  sim.run_until(350);
  timer.stop();
  sim.run_until(1000);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, 100, [&] {
                        if (++fires == 2) timer.stop();
                      }};
  timer.start();
  sim.run_until(10000);
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer{sim, 100, [&] { fires++; }};
    timer.start();
    sim.run_until(150);
  }
  sim.run_until(1000);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimer, RestartResetsPhase) {
  Simulator sim;
  std::vector<Time> at;
  PeriodicTimer timer{sim, 100, [&] { at.push_back(sim.now()); }};
  timer.start();
  sim.run_until(150);  // fired at 100
  timer.start();       // restart at t=150 -> next fire 250
  sim.run_until(260);
  EXPECT_EQ(at, (std::vector<Time>{100, 250}));
}

// One table of outstanding requests, run on a one-shard engine; entries
// are strings, and the expiry handler records what expired.
using RequestTable = BasicRequestTable<std::string, Simulator>;
constexpr NodeId kPeer{1};

TEST(RequestTable, ReplyBeforeTheDeadlineCancelsIt) {
  Simulator sim;
  int expired = 0;
  RequestTable table{sim, [&](std::uint64_t, std::string) { expired++; }};
  const std::uint64_t id = table.open(kPeer, "call", 100);
  sim.run_until(50);
  EXPECT_EQ(table.take(id, kPeer), "call");
  EXPECT_EQ(table.take(id, kPeer), std::nullopt);
  sim.run_until(1000);
  EXPECT_EQ(expired, 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(RequestTable, LateReplyAfterTheDeadlineFindsNothing) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, std::string>> expired;
  RequestTable table{sim, [&](std::uint64_t id, std::string entry) {
                       expired.emplace_back(id, entry);
                     }};
  const std::uint64_t id = table.open(kPeer, "call", 100);
  sim.run_until(150);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], std::make_pair(id, std::string{"call"}));
  EXPECT_EQ(table.find(id, kPeer), nullptr);
  EXPECT_EQ(table.take(id, kPeer), std::nullopt);
  EXPECT_EQ(table.size(), 0u);
  sim.run_until(1000);
  EXPECT_EQ(expired.size(), 1u);
}

TEST(RequestTable, ReplyFromAnotherPeerIsIgnored) {
  Simulator sim;
  RequestTable table{sim, [](std::uint64_t, std::string) {}};
  const std::uint64_t id = table.open(kPeer, "call", 100);
  EXPECT_EQ(table.find(id, NodeId{2}), nullptr);
  EXPECT_EQ(table.take(id, NodeId{2}), std::nullopt);
  EXPECT_EQ(table.take(id, kPeer), "call");

  const std::uint64_t flooded = table.open(kAnyPeer, "query", 100);
  EXPECT_NE(table.find(flooded, NodeId{2}), nullptr);
  EXPECT_EQ(table.take(flooded, NodeId{9}), "query");
}

TEST(RequestTable, FindThenTake) {
  Simulator sim;
  RequestTable table{sim, [](std::uint64_t, std::string) {}};
  const std::uint64_t id = table.open(kPeer, "a", 100);
  std::string* entry = table.find(id, kPeer);
  ASSERT_NE(entry, nullptr);
  *entry += "b";
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.take(id, kPeer), "ab");
  EXPECT_EQ(table.size(), 0u);
}

TEST(RequestTable, IdsRunFromOneInOpenAndSkipOrder) {
  Simulator sim;
  RequestTable table{sim, [](std::uint64_t, std::string) {}};
  EXPECT_EQ(table.open(kPeer, "a", 100), 1u);
  EXPECT_EQ(table.skip(), 2u);
  EXPECT_EQ(table.open(kAnyPeer, "b", 100), 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(RequestTable, ExpiryHandlerMayOpenARequest) {
  Simulator sim;
  std::vector<Time> expired_at;
  RequestTable table{sim, [&](std::uint64_t, std::string entry) {
                       expired_at.push_back(sim.now());
                       if (entry == "retry") table.open(kPeer, "last", 100);
                     }};
  table.open(kPeer, "retry", 100);
  sim.run_until(1000);
  EXPECT_EQ(expired_at, (std::vector<Time>{100, 200}));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RequestTable, DestructionCancelsEveryDeadlineAndRunsNoHandler) {
  Simulator sim;
  sim.schedule_at(500, [] {});
  const std::size_t baseline = sim.pending();
  int expired = 0;
  {
    RequestTable table{sim, [&](std::uint64_t, std::string) { expired++; }};
    table.open(kPeer, "a", 100);
    table.open(kAnyPeer, "b", 0);
    EXPECT_EQ(sim.pending(), baseline + 2);
  }
  EXPECT_EQ(sim.pending(), baseline);
  sim.run_until(1000);
  EXPECT_EQ(expired, 0);
}

TEST(Simulator, PendingIsExact) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(sim.schedule_at(10 * (i + 1), [] {}));
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[3]));
  EXPECT_EQ(sim.pending(), 3u);  // tombstones in the heap do not count
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, CancelInsideHandler) {
  // A handler cancels a later event, and also one scheduled at the very
  // same timestamp (already popped ordering must honour the cancel).
  Simulator sim;
  bool later_ran = false;
  bool same_time_ran = false;
  EventId later = EventId::invalid();
  EventId same_time = EventId::invalid();
  sim.schedule_at(100, [&] {
    EXPECT_TRUE(sim.cancel(later));
    EXPECT_TRUE(sim.cancel(same_time));
  });
  same_time = sim.schedule_at(100, [&] { same_time_ran = true; });
  later = sim.schedule_at(200, [&] { later_ran = true; });
  sim.run_all();
  EXPECT_FALSE(later_ran);
  EXPECT_FALSE(same_time_ran);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelAlreadyFiredIdIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
  // The slot is recycled; the stale id must not cancel the new occupant.
  bool ran = false;
  const EventId reused = sim.schedule_at(20, [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(id));
  sim.run_all();
  EXPECT_TRUE(ran);
  (void)reused;
}

TEST(Simulator, SlabIdReuseAcrossGenerations) {
  Simulator sim;
  const EventId first = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.cancel(first));
  // The freed slot is recycled with a new generation: ids differ even
  // though the slot is the same, and the old id stays dead.
  bool ran = false;
  const EventId second = sim.schedule_at(10, [&] { ran = true; });
  EXPECT_NE(first, second);
  EXPECT_EQ(sim.slab_capacity(), 1u);  // one slot, reused
  EXPECT_FALSE(sim.cancel(first));
  sim.run_all();
  EXPECT_TRUE(ran);
  // Many generations on one slot keep working.
  for (int i = 0; i < 100; ++i) {
    const EventId id = sim.schedule_after(1, [] {});
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));
  }
  EXPECT_EQ(sim.slab_capacity(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

// Cancelled entries wait in the heap for their deadline to reach the top.
// Behind live timers due first, as a UDP process's retransmission timers
// sit behind its sooner ones, they must not pile up: the replfs-udp run
// this reproduces armed 184,822 timers with at most 7 live.
TEST(Simulator, CancelledEntriesStayBoundedBehindLiveOnes) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 7; ++i) sim.schedule_at(i, [&] { fired++; });
  std::size_t peak = 0;
  for (int i = 0; i < 184822; ++i) {
    const EventId id = sim.schedule_at(duration::seconds(1) + i, [] {});
    peak = std::max(peak, sim.heap_depth());
    ASSERT_TRUE(sim.cancel(id));
  }
  EXPECT_LE(peak, 79u);
  EXPECT_EQ(sim.pending(), 7u);
  sim.run_all();
  EXPECT_EQ(fired, 7);
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, SlabGrowsOnlyWithConcurrency) {
  Simulator sim;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) sim.schedule_after(i + 1, [] {});
    sim.run_all();
  }
  // 4 concurrent events at most -> at most 4 slots ever allocated.
  EXPECT_LE(sim.slab_capacity(), 4u);
  EXPECT_EQ(sim.executed_events(), 200u);
}

TEST(PeriodicTimer, SetIntervalMidFlight) {
  // Changing the interval from inside the handler applies to the next
  // re-arm; stop()+start() inside the handler resets the phase instead.
  Simulator sim;
  std::vector<Time> at;
  PeriodicTimer timer{sim, 100, [&] {
                        at.push_back(sim.now());
                        if (at.size() == 2) timer.set_interval(50);
                      }};
  timer.start();
  sim.run_until(400);
  EXPECT_EQ(at, (std::vector<Time>{100, 200, 250, 300, 350, 400}));
  EXPECT_EQ(timer.interval(), 50);
}

TEST(PeriodicTimer, RestartInsideHandlerKeepsSingleEvent) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, 100, [&] {
                        if (++fires == 1) timer.start(30);  // restart mid-flight
                      }};
  timer.start();
  sim.run_until(135);
  EXPECT_EQ(fires, 2);  // 100, then 130 — no duplicate armed event
  EXPECT_EQ(sim.pending(), 1u);
}

// --- event-order digest & slab audit ----------------------------------------

TEST(Determinism, EventDigestWitnessesExecution) {
  auto digest_of = [](std::uint64_t seed, int events) {
    Simulator sim{seed};
    for (int i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<Time>(sim.rng().uniform_int(0, 1000)), [] {});
    }
    sim.run_all();
    return sim.digest();
  };
  EXPECT_EQ(digest_of(7, 50), digest_of(7, 50));  // twin runs: one value
  EXPECT_NE(digest_of(8, 50), digest_of(7, 50));  // seed-sensitive
  EXPECT_NE(digest_of(7, 49), digest_of(7, 50));  // event-count-sensitive
}

TEST(Determinism, EventDigestSensitiveToScheduleOrder) {
  // Identical event *sets* scheduled in opposite order: execution times
  // match but insertion sequence (mixed into the digest) differs, so the
  // digest still distinguishes the runs.
  auto run = [](bool swapped) {
    Simulator sim{1};
    if (swapped) {
      sim.schedule_at(20, [] {});
      sim.schedule_at(10, [] {});
    } else {
      sim.schedule_at(10, [] {});
      sim.schedule_at(20, [] {});
    }
    sim.run_all();
    return sim.digest();
  };
  EXPECT_NE(run(false), run(true));
}

TEST(Simulator, AuditVerifyPassesThroughChurn) {
  // Heavy schedule/cancel/execute churn with interleaved full audits:
  // the slab free list, the generation tags and the heap must agree at
  // every checkpoint (audit_verify aborts on any inconsistency).
  Simulator sim{42};
  std::vector<EventId> ids;
  for (int round = 0; round < 20; ++round) {
    ids.clear();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(sim.schedule_after(static_cast<Time>(i * 3 + round), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.audit_verify();
    sim.run_until(sim.now() + 25);
    sim.audit_verify();
  }
  sim.run_all();
  sim.audit_verify();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Determinism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    Simulator sim{seed};
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<Time>(sim.rng().uniform_int(0, 1000)),
                      [&trace, &sim] { trace.push_back(static_cast<std::uint64_t>(sim.now())); });
    }
    sim.run_all();
    return trace;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// --- cancel and slab on a 4-shard engine ------------------------------------
// Every shard keeps its own slab, so the cancel and slot-reuse contracts
// above must hold per shard, including from inside a parallel window.

TEST(ShardedSimulator, CancelFromOwnShardInsideParallelWindow) {
  Simulator e({.shards = 4, .workers = 4, .lookahead = 10, .seed = 1});
  std::array<EventId, 4> same_window{};
  std::array<EventId, 4> later_window{};
  // One element per shard: a shard's events never write another's slot.
  std::array<int, 4> fired{};
  std::array<bool, 4> cancelled{};
  for (Simulator::ShardIndex s = 0; s < 4; ++s) {
    e.schedule(s, 20, 0, 0, [&, s] {
      cancelled[s] = e.cancel(same_window[s]) && e.cancel(later_window[s]) &&
                     !e.cancel(same_window[s]);
    });
    same_window[s] = e.schedule(s, 25, 1, 0, [&fired, s] { fired[s] += 100; });
    later_window[s] = e.schedule(s, 70, 1, 0, [&fired, s] { fired[s] += 100; });
    e.schedule(s, 80, 2, 0, [&fired, s] { fired[s]++; });
  }
  EXPECT_EQ(e.pending(), 16u);
  e.run_until(100);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(cancelled[s]) << "shard " << s;
    EXPECT_EQ(fired[s], 1) << "shard " << s;
  }
  EXPECT_EQ(e.pending(), 0u);  // tombstones in the heaps do not count
  EXPECT_EQ(e.stats().executed, 8u);
  e.audit_verify();
}

TEST(ShardedSimulator, StaleIdIsIgnoredAfterSlotReuse) {
  Simulator e({.shards = 4, .workers = 2, .lookahead = 10, .seed = 1});
  // Slot 0 of two different shards: the ids still differ.
  const EventId a = e.schedule(2, 10, 1, 0, [] {});
  const EventId b = e.schedule(3, 10, 1, 0, [] {});
  EXPECT_NE(a, b);
  EXPECT_TRUE(e.cancel(a));
  EXPECT_FALSE(e.cancel(a));
  bool reused_ran = false;
  const EventId reused = e.schedule(2, 10, 1, 0, [&reused_ran] { reused_ran = true; });
  EXPECT_NE(reused, a);
  EXPECT_FALSE(e.cancel(a));  // the stale id must not cancel the new occupant
  EXPECT_EQ(e.pending(), 2u);

  // Inside a window: shard 1's first events fire and free their slots, a
  // later event reuses one, and the fired events' ids stay dead.
  EventId x = EventId::invalid();
  EventId y = EventId::invalid();
  bool stale_ignored = false;
  bool z_ran = false;
  x = e.schedule(1, 10, 1, 0, [] {});
  y = e.schedule(1, 20, 1, 0, [&] {
    e.schedule(1, 30, 1, 0, [&z_ran] { z_ran = true; });
    stale_ignored = !e.cancel(x) && !e.cancel(y);
  });
  EXPECT_EQ(e.pending(), 4u);
  e.run_until(50);
  EXPECT_TRUE(reused_ran);
  EXPECT_TRUE(stale_ignored);
  EXPECT_TRUE(z_ran);
  EXPECT_FALSE(e.cancel(b));  // already fired
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.slab_capacity(), 4u);  // shards 1, 2, 3: 2 + 1 + 1 slots
  e.audit_verify();
}

TEST(ShardedSimulatorDeath, CancelFromForeignShardInsideWindowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator e({.shards = 4, .workers = 1, .lookahead = 10, .seed = 1});
        const EventId victim = e.schedule(3, 50, 1, 0, [] {});
        e.schedule(0, 20, 1, 0, [&] { (void)e.cancel(victim); });
        e.run_until(100);
      },
      "another shard");
}

// --- golden digests ----------------------------------------------------------
// Twin-run tests compare two runs of the same code, so a change that
// reorders events passes them whenever it reorders both twins alike. These
// pin absolute values recorded before the sharded engine was folded into
// Simulator: a mismatch is a behaviour change.

TEST(GoldenDigest, SerialWorkloadWithCancels) {
  Simulator sim{2024};
  std::vector<EventId> ids;
  std::uint64_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    const auto at = static_cast<Time>(sim.rng().uniform_int(0, 500));
    ids.push_back(sim.schedule_at(at, [&sim, &ids, &fired, i] {
      fired++;
      // Handlers cancel other events (fired, pending or already cancelled)
      // and schedule follow-ups, some at the current instant.
      if (i % 3 == 0) (void)sim.cancel(ids[(static_cast<std::size_t>(i) * 7 + 11) % ids.size()]);
      if (i % 4 == 0) sim.schedule_after(static_cast<Time>(i % 17), [&fired] { fired++; });
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 5) (void)sim.cancel(ids[i]);
  sim.run_all();
  EXPECT_EQ(sim.digest(), 0x4197b233ed894756ULL);
  EXPECT_EQ(sim.executed_events(), 175u);
  EXPECT_EQ(fired, sim.executed_events());
  EXPECT_EQ(sim.now(), 516);
}

}  // namespace
}  // namespace ndsm::sim
