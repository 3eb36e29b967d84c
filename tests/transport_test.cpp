#include <gtest/gtest.h>

#include <stdexcept>

#include "net/faults.hpp"
#include "test_helpers.hpp"
#include "transport/reliable.hpp"

namespace ndsm::transport {
namespace {

using testing::Lan;
using testing::WirelessGrid;

TEST(Transport, BasicDelivery) {
  Lan lan{2};
  Bytes got;
  NodeId from;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId src, const Bytes& b) {
    got = b;
    from = src;
  });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("hello")).is_ok());
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(to_string(got), "hello");
  EXPECT_EQ(from, lan.nodes[0]);
}

TEST(Transport, DuplicatePortBindIsHardErrorInAllBuilds) {
  // Regression: this used to be assert-only, so release builds silently
  // overwrote the old handler. Now it throws in every build type, and
  // the original binding keeps receiving.
  Lan lan{2};
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { first++; });
  EXPECT_THROW(
      lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { second++; }),
      std::logic_error);
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("x")).is_ok());
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 0u);
  // clear_receiver is the sanctioned rebind path.
  lan.transport(1).clear_receiver(ports::kApp);
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { second++; });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("y")).is_ok());
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(second, 1u);
}

TEST(Transport, CompletionCallbackFiresOnAck) {
  Lan lan{2};
  lan.transport(1).set_receiver(ports::kApp, [](NodeId, const Bytes&) {});
  bool completed = false;
  Status result{ErrorCode::kInternal, "never set"};
  lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("x"), [&](Status s) {
    completed = true;
    result = s;
  });
  lan.sim.run_until(duration::seconds(1));
  EXPECT_TRUE(completed);
  EXPECT_TRUE(result.is_ok());
}

TEST(Transport, PortDemultiplexing) {
  Lan lan{2};
  std::string on_a;
  std::string on_b;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes& b) { on_a = to_string(b); });
  lan.transport(1).set_receiver(ports::kRpc, [&](NodeId, const Bytes& b) { on_b = to_string(b); });
  lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("for-app"));
  lan.transport(0).send(lan.nodes[1], ports::kRpc, to_bytes("for-rpc"));
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(on_a, "for-app");
  EXPECT_EQ(on_b, "for-rpc");
}

TEST(Transport, LargeMessageFragmentsAndReassembles) {
  Lan lan{2};
  Bytes big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
  Bytes got;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes& b) { got = b; });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, big).is_ok());
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(got, big);
  // 10000 / 96 -> 105 fragments.
  EXPECT_GE(lan.transport(0).stats().fragments_sent, 105u);
}

TEST(Transport, EmptyMessageDelivered) {
  Lan lan{2};
  bool got = false;
  std::size_t len = 99;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes& b) {
    got = true;
    len = b.size();
  });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, Bytes{}).is_ok());
  lan.sim.run_until(duration::seconds(1));
  EXPECT_TRUE(got);
  EXPECT_EQ(len, 0u);
}

TEST(Transport, SelfSendIsLocal) {
  Lan lan{1};
  Bytes got;
  bool completed = false;
  lan.transport(0).set_receiver(ports::kApp, [&](NodeId src, const Bytes& b) {
    EXPECT_EQ(src, lan.nodes[0]);
    got = b;
  });
  lan.transport(0).send(lan.nodes[0], ports::kApp, to_bytes("self"),
                        [&](Status s) { completed = s.is_ok(); });
  lan.sim.run_until(duration::millis(10));
  EXPECT_EQ(to_string(got), "self");
  EXPECT_TRUE(completed);
}

TEST(Transport, RecoversFromHeavyLoss) {
  // 30% frame loss on a 2-node wireless link; retransmission must recover.
  WirelessGrid grid{2, 20.0, 42, 1e9, /*loss=*/0.3};
  grid.with_routers<routing::FloodingRouter>();
  int delivered = 0;
  grid.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { delivered++; });
  int completed_ok = 0;
  for (int i = 0; i < 20; ++i) {
    grid.transport(0).send(grid.nodes[1], ports::kApp, to_bytes("msg"), [&](Status s) {
      if (s.is_ok()) completed_ok++;
    });
  }
  grid.sim.run_until(duration::seconds(30));
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(completed_ok, 20);
  EXPECT_GT(grid.transport(0).stats().retransmissions, 0u);
}

TEST(Transport, NoDuplicateDeliveryUnderLoss) {
  WirelessGrid grid{2, 20.0, 7, 1e9, /*loss=*/0.4};
  grid.with_routers<routing::FloodingRouter>();
  int delivered = 0;
  grid.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { delivered++; });
  for (int i = 0; i < 10; ++i) {
    grid.transport(0).send(grid.nodes[1], ports::kApp, to_bytes("once"));
  }
  grid.sim.run_until(duration::seconds(60));
  EXPECT_EQ(delivered, 10);  // exactly once each despite retransmits
}

// Satellite regression (DESIGN §15): hostile transport frames — garbage,
// truncations, and a fragment header claiming 2^60 total fragments — are
// counted into malformed_dropped and the transport keeps working. The
// 2^60 case used to resize() the reassembly vector to the declared count.
TEST(Transport, MalformedFramesCountedAndDropped) {
  Lan lan{2};
  Bytes got;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes& b) { got = b; });

  const auto inject = [&](Bytes frame) {
    ASSERT_TRUE(lan.router(0)
                    .send(lan.nodes[1], net::Proto::kTransport, std::move(frame))
                    .is_ok());
  };
  inject(Bytes{});                     // empty frame
  inject(Bytes{0xff, 0xfe, 0xfd});     // unknown kind
  inject(Bytes{1});                    // fragment kind, then nothing
  {
    serialize::Writer w;  // fragment claiming 2^60 total fragments
    w.u8(1);              // kFragment
    w.varint(1);          // epoch
    w.varint(99);         // msg id
    w.u16(ports::kApp);
    w.varint(0);          // index
    w.varint(1ULL << 60); // hostile count
    w.bytes(to_bytes("overflow"));
    inject(std::move(w).take());
  }
  {
    serialize::Writer w;  // ack truncated after the epoch
    w.u8(2);              // kAck
    w.varint(1);
    inject(std::move(w).take());
  }
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(lan.transport(1).stats().malformed_dropped, 5u);
  EXPECT_EQ(lan.transport(1).stats().messages_delivered, 0u);

  // The transport is still fully functional afterwards.
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("alive")).is_ok());
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(to_string(got), "alive");
}

TEST(Transport, FailureReportedWhenPeerDead) {
  Lan lan{2};
  lan.world.kill(lan.nodes[1]);
  Status result;
  lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("x"),
                        [&](Status s) { result = s; });
  lan.sim.run_until(duration::minutes(2));
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
  EXPECT_EQ(lan.transport(0).stats().messages_failed, 1u);
}

TEST(Transport, ManyConcurrentMessagesAllComplete) {
  Lan lan{4};
  int delivered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    lan.transport(i).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { delivered++; });
  }
  int sent = 0;
  for (std::size_t from = 0; from < 4; ++from) {
    for (std::size_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      for (int k = 0; k < 5; ++k) {
        lan.transport(from).send(lan.nodes[to], ports::kApp, to_bytes("m"));
        sent++;
      }
    }
  }
  lan.sim.run_until(duration::seconds(5));
  EXPECT_EQ(delivered, sent);
}

TEST(Transport, MultiHopReliableDelivery) {
  WirelessGrid grid{9, 20.0, 42, 1e9, /*loss=*/0.1};
  grid.with_routers<routing::FloodingRouter>();
  Bytes got;
  grid.transport(8).set_receiver(ports::kApp, [&](NodeId, const Bytes& b) { got = b; });
  Bytes payload(500, 0xaa);
  bool ok = false;
  grid.transport(0).send(grid.nodes[8], ports::kApp, payload,
                         [&](Status s) { ok = s.is_ok(); });
  grid.sim.run_until(duration::seconds(30));
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(ok);
}

TEST(Transport, StatsTrackPayloadBytes) {
  Lan lan{2};
  lan.transport(1).set_receiver(ports::kApp, [](NodeId, const Bytes&) {});
  lan.transport(0).send(lan.nodes[1], ports::kApp, Bytes(1234, 1));
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(lan.transport(0).stats().payload_bytes_sent, 1234u);
  EXPECT_EQ(lan.transport(1).stats().payload_bytes_delivered, 1234u);
  EXPECT_EQ(lan.transport(1).stats().messages_delivered, 1u);
}

TEST(Transport, RtoBackoffBoundsAttempts) {
  Lan lan{2};
  lan.world.kill(lan.nodes[1]);
  TransportConfig cfg;
  EXPECT_EQ(cfg.max_retries, 5);
  Status result;
  lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("x"),
                        [&](Status s) { result = s; });
  lan.sim.run_until(duration::minutes(5));
  // initial 200ms with x2 backoff, 5 retries: attempts at ~0.2,0.4,...
  const auto& stats = lan.transport(0).stats();
  EXPECT_EQ(stats.fragments_sent, 1u + 5u);  // initial + retries
}

TEST(Transport, RetryExhaustionReportsOnceAndFreesAllState) {
  // Regression for the failure path: a multi-fragment message is cut off
  // mid-flight (the radio range collapses), the sender exhausts
  // max_retries, and then (1) the completion callback fires exactly once
  // with an error, (2) the sender's outbox is empty, and (3) the
  // receiver's half-assembled message is GC'd by the reassembly timeout
  // instead of leaking forever.
  sim::Simulator sim{5};
  net::World world{sim};
  // A lossy radio drops part of the opening salvo, so the receiver is
  // left holding a genuinely partial reassembly when the link dies.
  const MediumId radio = world.add_medium(net::sensor_radio(/*range_m=*/30, /*loss=*/0.4));
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kFlooding;
  cfg.media = {radio};
  cfg.transport.max_retries = 3;
  cfg.transport.initial_rto = duration::millis(100);
  cfg.transport.reassembly_timeout = duration::seconds(5);
  node::Runtime a{world, Vec2{0, 0}, cfg};
  node::Runtime b{world, Vec2{20, 0}, cfg};
  b.transport().set_receiver(ports::kApp, [](NodeId, const Bytes&) {});

  int completions = 0;
  Status result = Status::ok();
  // 21 fragments leave in one salvo at t=10ms; ~40% never land. The link
  // dies before the first retransmission (rto 100ms), so the message is
  // stuck partly across forever.
  sim.schedule_at(duration::millis(10), [&] {
    a.transport().send(b.id(), ports::kApp, Bytes(2000, 0x5a), [&](Status s) {
      completions++;
      result = s;
    });
  });
  sim.schedule_at(duration::millis(50), [&] { world.set_medium_range(radio, 0.01); });
  sim.run_until(duration::seconds(30));

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(a.transport().stats().messages_failed, 1u);
  EXPECT_EQ(a.transport().outbox_size(), 0u);
  EXPECT_GE(b.transport().stats().reassemblies_expired, 1u);
  EXPECT_EQ(b.transport().reassembly_count(), 0u);
}

TEST(Transport, ReassemblyGcSparesLiveTransfers) {
  // A slow but alive multi-fragment transfer under loss must NOT be
  // garbage-collected: the idle clock resets on every fragment, so a
  // transfer that outlives the reassembly timeout still completes.
  sim::Simulator sim{7};
  net::World world{sim};
  const MediumId radio = world.add_medium(net::wifi80211(/*range_m=*/50, /*loss=*/0.3));
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kFlooding;
  cfg.media = {radio};
  cfg.transport.initial_rto = duration::millis(150);
  cfg.transport.rto_backoff = 1.0;  // constant-rate salvos: gaps stay < timeout
  cfg.transport.max_retries = 30;
  cfg.transport.reassembly_timeout = duration::millis(500);
  node::Runtime a{world, Vec2{0, 0}, cfg};
  node::Runtime b{world, Vec2{20, 0}, cfg};
  Bytes got;
  b.transport().set_receiver(ports::kApp, [&](NodeId, const Bytes& p) { got = p; });
  Bytes payload(5000, 0x7e);
  bool ok = false;
  Time done_at = 0;
  a.transport().send(b.id(), ports::kApp, payload, [&](Status s) {
    ok = s.is_ok();
    done_at = sim.now();
  });
  sim.run_until(duration::minutes(2));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, payload);
  // The transfer really did straddle the timeout window...
  EXPECT_GT(done_at, cfg.transport.reassembly_timeout);
  // ...yet nothing was expired out from under it.
  EXPECT_EQ(b.transport().stats().reassemblies_expired, 0u);
  EXPECT_EQ(b.transport().reassembly_count(), 0u);
}

TEST(Transport, LateDuplicatesBeyondDedupWindowStillSuppressed) {
  // Regression: the dedup window only remembered the last `dedup_window`
  // completed ids as a set, so a frame duplicated later than that (easy
  // for a delay-jitter fault to arrange) was re-delivered to the
  // application. The monotone per-peer floor closes the hole: every id at
  // or below the floor stays rejected forever, so shrinking the window to
  // 2 while the fault layer duplicates *every* frame with up to 800ms of
  // extra delay must still deliver each payload exactly once.
  sim::Simulator sim{42};
  net::World world{sim};
  const MediumId medium = world.add_medium(net::ethernet100());
  auto table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kGlobal;
  cfg.table = table;
  cfg.transport.dedup_window = 2;  // tiny: late duplicates outlive the set
  cfg.media = {medium};
  node::Runtime a{world, Vec2{0, 0}, cfg};
  node::Runtime b{world, Vec2{10, 0}, cfg};

  net::FaultPlan faults{world};
  faults.duplication(/*probability=*/1.0, /*max_extra_delay=*/duration::millis(800));

  std::unordered_map<std::string, int> deliveries;
  b.transport().set_receiver(ports::kApp, [&](NodeId, const Bytes& p) {
    deliveries[to_string(p)]++;
  });
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    sim.schedule_at(duration::millis(50) * (i + 1), [&, i] {
      a.transport().send(b.id(), ports::kApp, to_bytes("msg-" + std::to_string(i)));
    });
  }
  sim.run_until(duration::seconds(10));

  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [payload, count] : deliveries) {
    EXPECT_EQ(count, 1) << payload << " delivered " << count << " times";
  }
  EXPECT_GT(faults.stats().duplicates_injected, 0u);
  EXPECT_GT(b.transport().stats().duplicates_dropped, 0u);
}

// The completed-id window keeps its eviction order in a ring of at most
// dedup_window ids. Ten sparse completions through a window of 4 (ids 2,
// 4, ..., 20: never contiguous, so the floor moves only by eviction) end
// with floor 12 and {14, 16, 18, 20} retained. Duplicates of an evicted id
// and of a retained id are both suppressed, an incomplete id at or below
// the floor counts as abandoned, and one above it is still delivered.
TEST(Transport, SparseCompletionsBeyondDedupWindowStaySuppressed) {
  sim::Simulator sim{42};
  net::World world{sim};
  const MediumId medium = world.add_medium(net::ethernet100());
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kGlobal;
  cfg.table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  cfg.transport.dedup_window = 4;
  cfg.media = {medium};
  node::Runtime a{world, Vec2{0, 0}, cfg};
  node::Runtime b{world, Vec2{10, 0}, cfg};
  std::vector<std::string> got;
  b.transport().set_receiver(ports::kApp,
                             [&](NodeId, const Bytes& p) { got.push_back(to_string(p)); });
  // A single-fragment message with wire id `msg_id`, as a sender in
  // incarnation 1 would put it on the wire.
  const auto send_id = [&](std::uint64_t msg_id) {
    serialize::Writer w;
    w.u8(1);  // kFragment
    w.varint(1);
    w.varint(msg_id);
    w.u16(ports::kApp);
    w.varint(0);
    w.varint(1);
    w.bytes(to_bytes(std::to_string(msg_id)));
    obs::encode_trace(w, obs::TraceContext{});
    ASSERT_TRUE(a.router().send(b.id(), net::Proto::kTransport, std::move(w).take()).is_ok());
    sim.run_until(sim.now() + duration::millis(10));
  };
  for (std::uint64_t id = 2; id <= 20; id += 2) send_id(id);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(b.transport().stats().duplicates_dropped, 0u);

  send_id(4);   // evicted: below the floor
  send_id(16);  // retained in the window
  send_id(11);  // never completed, but at or below the floor: abandoned
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(b.transport().stats().duplicates_dropped, 3u);
  send_id(13);  // above the floor and never completed
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(got.back(), "13");
  send_id(13);
  EXPECT_EQ(got.size(), 11u);
  EXPECT_EQ(b.transport().stats().duplicates_dropped, 4u);
}

TEST(Transport, SenderRestartReusedMessageIdsAreNotDuplicates) {
  // Regression: message ids restart from 1 after a crash/restart, and the
  // receiver's dedup state used to outlive the sender incarnation — every
  // post-restart message re-using an already-seen id was acked but
  // silently swallowed as a duplicate. Frames now carry the sender's
  // epoch; a newer epoch resets the peer window.
  Lan lan{2};
  std::vector<std::string> got;
  lan.transport(1).set_receiver(ports::kApp,
                                [&](NodeId, const Bytes& p) { got.push_back(to_string(p)); });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("pre-crash")).is_ok());
  lan.sim.run_until(duration::seconds(1));
  ASSERT_EQ(got, (std::vector<std::string>{"pre-crash"}));

  lan.sim.schedule_at(duration::seconds(2), [&] { lan.runtime(0).crash(); });
  lan.sim.schedule_at(duration::seconds(3), [&] { lan.runtime(0).restart(); });
  lan.sim.schedule_at(duration::seconds(4), [&] {
    // Fresh incarnation, next_msg_id back at 1 — the same wire id as
    // "pre-crash". Must be delivered, not deduped.
    ASSERT_TRUE(
        lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("post-restart")).is_ok());
  });
  lan.sim.run_until(duration::seconds(6));

  EXPECT_EQ(got, (std::vector<std::string>{"pre-crash", "post-restart"}));
  EXPECT_EQ(lan.transport(1).stats().duplicates_dropped, 0u);
}

}  // namespace
}  // namespace ndsm::transport
