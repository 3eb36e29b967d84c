#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_stack.hpp"
#include "net/faults.hpp"
#include "obs/trace.hpp"
#include "routing/flooding.hpp"
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

// A message to self waits for the next event; a crash before then takes
// it down with the transport, and neither its receiver nor its
// completion runs.
TEST(Transport, SelfSendDiesWithTheTransport) {
  Lan lan{1};
  int received = 0;
  int completed = 0;
  lan.transport(0).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { received++; });
  lan.transport(0).send(lan.nodes[0], ports::kApp, to_bytes("self"),
                        [&](Status) { completed++; });
  lan.runtime(0).crash();
  lan.sim.run_until(duration::millis(10));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(completed, 0);
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

// Satellite regression: a fragment that declares another count than the
// message it joins is malformed, and like every malformed frame it is
// dropped before anything is acked. It used to be acked first, telling the
// sender that a fragment had landed which the receiver then threw away.
TEST(Transport, FragmentWithAConflictingCountIsDroppedUnacked) {
  Lan lan{2};
  int delivered = 0;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { delivered++; });
  const auto inject = [&](std::uint64_t index, std::uint64_t count) {
    serialize::Writer w;
    w.u8(1);  // kFragment
    w.varint(lan.transport(0).trace_ids().epoch());
    w.varint(5);  // msg id
    w.u16(ports::kApp);
    w.varint(index);
    w.varint(count);
    w.bytes(to_bytes("part"));
    ASSERT_TRUE(lan.router(0)
                    .send(lan.nodes[1], net::Proto::kTransport, std::move(w).take())
                    .is_ok());
    lan.sim.run_until(lan.sim.now() + duration::millis(10));
  };
  inject(0, 2);  // opens a two-fragment message
  const TransportStats before = lan.transport(1).stats();
  ASSERT_EQ(before.acks_sent, 1u);
  ASSERT_EQ(lan.transport(1).reassembly_count(), 1u);
  inject(1, 3);  // claims a third fragment
  inject(0, 1);  // claims the id for a one-fragment message
  const TransportStats& after = lan.transport(1).stats();
  EXPECT_EQ(after.malformed_dropped, before.malformed_dropped + 2);
  EXPECT_EQ(after.acks_sent, before.acks_sent);
  EXPECT_EQ(after.acks_piggybacked, before.acks_piggybacked);
  EXPECT_EQ(delivered, 0);
  inject(1, 2);  // the real second fragment still completes the message
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(lan.transport(1).reassembly_count(), 0u);
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
  EXPECT_GT(world.stats().fault_duplicates, 0u);
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

// --- acks carried on replies ----------------------------------------------

// A receiver that answers inside its up-call: the reply's first fragment
// carries the request's ack, so the exchange is three frames (request,
// reply with the ack, the reply's own ack). Separate acks made it four.
TEST(Transport, ReplyInsideTheUpCallCarriesTheAck) {
  Lan lan{2};
  Status request_status{ErrorCode::kInternal, "never set"};
  Status reply_status{ErrorCode::kInternal, "never set"};
  std::string got;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId src, const Bytes&) {
    ASSERT_TRUE(lan.transport(1)
                    .send(src, ports::kApp, to_bytes("pong"),
                          [&](Status s) { reply_status = s; })
                    .is_ok());
  });
  lan.transport(0).set_receiver(ports::kApp,
                                [&](NodeId, const Bytes& b) { got = to_string(b); });
  ASSERT_TRUE(lan.transport(0)
                  .send(lan.nodes[1], ports::kApp, to_bytes("ping"),
                        [&](Status s) { request_status = s; })
                  .is_ok());
  lan.sim.run_until(duration::seconds(1));

  EXPECT_EQ(got, "pong");
  EXPECT_TRUE(request_status.is_ok());
  EXPECT_TRUE(reply_status.is_ok());
  EXPECT_EQ(lan.world.stats().frames_sent, 3u);
  EXPECT_EQ(lan.transport(1).stats().acks_piggybacked, 1u);
  EXPECT_EQ(lan.transport(1).stats().acks_sent, 0u);
  EXPECT_EQ(lan.transport(0).stats().acks_piggybacked, 0u);
  EXPECT_EQ(lan.transport(0).stats().acks_sent, 1u);  // the reply's
}

// Without a message back to the sender inside the up-call the ack leaves
// on its own: a receiver that stays silent, and one that passes the
// message on to a third node, each cost their request one standalone ack.
TEST(Transport, AckStaysStandaloneWithoutAReplyToTheSender) {
  Lan lan{3};
  int passed_on = 0;
  lan.transport(1).set_receiver(ports::kApp, [](NodeId, const Bytes&) {});
  lan.transport(1).set_receiver(ports::kRpc, [&](NodeId, const Bytes& b) {
    ASSERT_TRUE(lan.transport(1).send(lan.nodes[2], ports::kApp, b).is_ok());
  });
  lan.transport(2).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { passed_on++; });
  int acked = 0;
  const auto count_ok = [&](Status s) { acked += s.is_ok() ? 1 : 0; };
  ASSERT_TRUE(
      lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("silent"), count_ok).is_ok());
  ASSERT_TRUE(
      lan.transport(0).send(lan.nodes[1], ports::kRpc, to_bytes("onward"), count_ok).is_ok());
  lan.sim.run_until(duration::seconds(1));

  EXPECT_EQ(acked, 2);
  EXPECT_EQ(passed_on, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lan.transport(i).stats().acks_piggybacked, 0u) << "node " << i;
  }
  EXPECT_EQ(lan.transport(1).stats().acks_sent, 2u);
  EXPECT_EQ(lan.transport(2).stats().acks_sent, 1u);
  // Two requests and their acks, the onward message and its ack.
  EXPECT_EQ(lan.world.stats().frames_sent, 6u);
}

// The one frame that carries both the reply and the request's ack is lost:
// the request handler cuts node 1 off for the microsecond in which it sends
// the reply. The request is retransmitted and acked on its own as a
// duplicate, the reply is retransmitted without the ack, and each side
// still delivers exactly once.
TEST(Transport, LostReplyCarryingTheAckIsRepairedByRetransmission) {
  Lan lan{2};
  net::FaultPlan faults{lan.world};
  int requests = 0;
  int replies = 0;
  Status request_status{ErrorCode::kInternal, "never set"};
  Status reply_status{ErrorCode::kInternal, "never set"};
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId src, const Bytes&) {
    requests++;
    faults.partition(0, {lan.nodes[1]}, 1);
    ASSERT_TRUE(lan.transport(1)
                    .send(src, ports::kApp, to_bytes("pong"),
                          [&](Status s) { reply_status = s; })
                    .is_ok());
  });
  lan.transport(0).set_receiver(ports::kApp, [&](NodeId, const Bytes&) { replies++; });
  ASSERT_TRUE(lan.transport(0)
                  .send(lan.nodes[1], ports::kApp, to_bytes("ping"),
                        [&](Status s) { request_status = s; })
                  .is_ok());
  lan.sim.run_until(duration::seconds(5));

  EXPECT_EQ(lan.world.stats().fault_drops, 1u);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(replies, 1);
  EXPECT_TRUE(request_status.is_ok());
  EXPECT_TRUE(reply_status.is_ok());
  const TransportStats& replier = lan.transport(1).stats();
  EXPECT_EQ(replier.acks_piggybacked, 1u);    // on the lost frame
  EXPECT_EQ(replier.duplicates_dropped, 1u);  // the retransmitted request...
  EXPECT_EQ(replier.acks_sent, 1u);           // ...acked on its own
  EXPECT_EQ(replier.retransmissions, 1u);     // the reply, now a plain fragment
  EXPECT_EQ(lan.transport(0).stats().retransmissions, 1u);
  EXPECT_EQ(lan.transport(0).stats().acks_sent, 1u);  // the reply's
}

// A carried ack that echoes a previous incarnation's epoch is dropped as
// stale, exactly as a standalone one is, and acks nothing; the fragment it
// rides on is handled on its own merits and delivered.
TEST(Transport, StaleCarriedAckIsDroppedWhileItsFragmentIsDelivered) {
  Lan lan{3};
  const std::uint64_t old_epoch = lan.transport(1).trace_ids().epoch();
  lan.sim.schedule_at(duration::millis(100), [&] { lan.runtime(1).crash(); });
  lan.sim.schedule_at(duration::millis(200), [&] { lan.runtime(1).restart(); });
  lan.sim.run_until(duration::millis(300));
  ASSERT_GT(lan.transport(1).trace_ids().epoch(), old_epoch);
  std::vector<std::string> got;
  lan.transport(1).set_receiver(ports::kApp,
                                [&](NodeId, const Bytes& b) { got.push_back(to_string(b)); });
  // An open message, id 1 in the new incarnation as it was in the old one,
  // that the stale ack must not complete: its peer is dead.
  lan.world.kill(lan.nodes[2]);
  ASSERT_TRUE(lan.transport(1).send(lan.nodes[2], ports::kApp, to_bytes("open")).is_ok());
  ASSERT_EQ(lan.transport(1).outbox_size(), 1u);

  serialize::Writer w;
  w.u8(3);  // kAckedFragment
  w.varint(old_epoch);
  w.varint(1);  // acked msg id
  w.varint(0);  // acked index
  w.varint(lan.transport(0).trace_ids().epoch());
  w.varint(1);  // msg id
  w.u16(ports::kApp);
  w.varint(0);
  w.varint(1);
  w.bytes(to_bytes("carried"));
  ASSERT_TRUE(
      lan.router(0).send(lan.nodes[1], net::Proto::kTransport, std::move(w).take()).is_ok());
  lan.sim.run_until(lan.sim.now() + duration::millis(10));

  const TransportStats& stats = lan.transport(1).stats();
  EXPECT_EQ(stats.stale_epoch_dropped, 1u);
  EXPECT_EQ(stats.malformed_dropped, 0u);
  EXPECT_EQ(lan.transport(1).outbox_size(), 1u);
  EXPECT_EQ(got, (std::vector<std::string>{"carried"}));
}

// A delivery nested in another's up-call (an up-call that pumps its stack)
// holds its own ack and gives the outer one back when it returns, so each
// reply carries its own request's ack and none is lost.
TEST(Transport, NestedDeliveryKeepsTheOuterHeldAck) {
  constexpr NodeId kSelf{1};
  fuzz::FuzzStack stack{kSelf};
  routing::FloodingRouter router{stack};
  ReliableTransport tp{router};
  // A one-fragment request from `peer`, in the direct frame its router
  // would send.
  const auto inject_request = [&](NodeId peer, Port port) {
    serialize::Writer w;
    w.u8(1);  // kFragment
    w.varint(5);
    w.varint(1);
    w.u16(port);
    w.varint(0);
    w.varint(1);
    w.bytes(to_bytes("request"));
    routing::RoutingHeader h;
    h.origin = peer;
    h.dst = kSelf;
    h.seq = 1;
    h.ttl = routing::Router::kDefaultTtl;
    h.upper = net::Proto::kTransport;
    stack.inject(net::Proto::kRouting, peer, kSelf, routing::encode_routing(h, w.data()));
  };
  tp.set_receiver(ports::kRpc, [&](NodeId src, const Bytes&) {
    ASSERT_TRUE(tp.send(src, ports::kRpc, to_bytes("inner reply")).is_ok());
  });
  tp.set_receiver(ports::kApp, [&](NodeId src, const Bytes&) {
    inject_request(NodeId{3}, ports::kRpc);
    ASSERT_TRUE(tp.send(src, ports::kApp, to_bytes("outer reply")).is_ok());
  });
  inject_request(NodeId{2}, ports::kApp);

  EXPECT_EQ(tp.stats().messages_delivered, 2u);
  EXPECT_EQ(tp.stats().acks_piggybacked, 2u);
  EXPECT_EQ(tp.stats().acks_sent, 0u);
  EXPECT_EQ(stack.frames_out(), 2u);
  // The last frame out is the outer reply, and it carries the outer ack.
  EXPECT_EQ(stack.last_dst(), NodeId{2});
  routing::RoutingHeader h;
  Bytes body;
  ASSERT_TRUE(routing::decode_routing(stack.last_frame(), h, body));
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], 3);  // kAckedFragment
}

// A one-fragment message goes straight from its frame to the receiver: no
// reassembly entry and no reassembly GC timer. Scheduling that timer and
// cancelling it within the delivery left a cancelled entry queued in the
// simulator for reassembly_timeout.
TEST(Transport, OneFragmentMessageSkipsReassembly) {
  Lan lan{2};
  bool delivered = false;
  std::size_t reassembling = 99;
  lan.transport(1).set_receiver(ports::kApp, [&](NodeId, const Bytes&) {
    delivered = true;
    reassembling = lan.transport(1).reassembly_count();
  });
  ASSERT_TRUE(lan.transport(0).send(lan.nodes[1], ports::kApp, to_bytes("whole")).is_ok());
  std::size_t pending = 0;
  std::size_t queued = 0;
  while (!delivered) {
    pending = lan.sim.pending();
    queued = lan.sim.heap_depth();
    ASSERT_TRUE(lan.sim.step());
  }
  // The delivery consumed its own event and put the ack on the wire.
  EXPECT_EQ(lan.sim.pending(), pending);
  EXPECT_EQ(lan.sim.heap_depth(), queued);
  EXPECT_EQ(reassembling, 0u);
  EXPECT_EQ(lan.transport(1).reassembly_count(), 0u);
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(lan.transport(0).outbox_size(), 0u);
}

// A transport frame carries no trace context of its own: a fragment's body
// ends at its data, and the routing header carries the sender's `message`
// span.
TEST(Transport, FragmentContextRidesOnlyInTheRoutingHeader) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  fuzz::FuzzStack stack{NodeId{1}};
  routing::FloodingRouter router{stack};
  ReliableTransport tp{router};
  ASSERT_TRUE(tp.send(NodeId{2}, ports::kApp, to_bytes("hello")).is_ok());
  const Bytes frame = stack.last_frame();
  routing::RoutingView view;
  ASSERT_TRUE(routing::view_routing(frame, view));
  serialize::Reader r{view.body.data(), view.body.size()};
  EXPECT_EQ(r.u8(), 1);  // kFragment
  EXPECT_EQ(r.varint(), fuzz::FuzzStack::kEpoch);
  EXPECT_EQ(r.varint(), 1u);  // msg id
  EXPECT_EQ(r.u16(), ports::kApp);
  EXPECT_EQ(r.varint(), 0u);  // index
  EXPECT_EQ(r.varint(), 1u);  // count
  EXPECT_EQ(r.bytes(), to_bytes("hello"));
  EXPECT_TRUE(r.exhausted());

  // The peer's ack completes the message, which records its span.
  serialize::Writer ack;
  ack.u8(2);  // kAck
  ack.varint(fuzz::FuzzStack::kEpoch);
  ack.varint(1);
  ack.varint(0);
  routing::RoutingHeader h;
  h.origin = NodeId{2};
  h.dst = NodeId{1};
  h.seq = 1;
  h.ttl = routing::Router::kDefaultTtl;
  h.upper = net::Proto::kTransport;
  stack.inject(net::Proto::kRouting, NodeId{2}, NodeId{1}, routing::encode_routing(h, ack.data()));
  ASSERT_EQ(tp.outbox_size(), 0u);
  const auto events = tracer.snapshot();
  const auto msg = std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
    return e.name == "message" && e.node == 1;
  });
  ASSERT_NE(msg, events.end());
  EXPECT_EQ(view.header.trace.trace_id, msg->trace_id);
  EXPECT_EQ(view.header.trace.span_id, msg->span_id);
  tracer.clear();
}

// A fragment from a node that still ends its frames in an 18-byte trace
// trailer is delivered once and acked: the trailing bytes are ignored.
TEST(Transport, FragmentWithATraceTrailerIsStillDeliveredOnceAndAcked) {
  fuzz::FuzzStack stack{NodeId{1}};
  routing::FloodingRouter router{stack};
  ReliableTransport tp{router};
  std::vector<std::string> got;
  tp.set_receiver(ports::kApp, [&](NodeId, const Bytes& b) { got.push_back(to_string(b)); });
  obs::TraceContext trailer;
  trailer.trace_id = 0x1111;
  trailer.span_id = 0x2222;
  serialize::Writer w;
  w.u8(1);  // kFragment
  w.varint(5);
  w.varint(1);
  w.u16(ports::kApp);
  w.varint(0);
  w.varint(1);
  w.bytes(to_bytes("old format"));
  obs::encode_trace(w, trailer);
  ASSERT_EQ(w.data().size(), 18 + obs::kTraceWireMax);  // a 10-byte payload
  routing::RoutingHeader h;
  h.origin = NodeId{2};
  h.dst = NodeId{1};
  h.seq = 1;
  h.ttl = routing::Router::kDefaultTtl;
  h.upper = net::Proto::kTransport;
  h.trace = trailer;
  const Bytes frame = routing::encode_routing(h, w.data());
  stack.inject(net::Proto::kRouting, NodeId{2}, NodeId{1}, frame);
  h.seq = 2;  // a retransmission: the same fragment in a new routing frame
  stack.inject(net::Proto::kRouting, NodeId{2}, NodeId{1}, routing::encode_routing(h, w.data()));

  EXPECT_EQ(got, (std::vector<std::string>{"old format"}));
  EXPECT_EQ(tp.stats().malformed_dropped, 0u);
  EXPECT_EQ(tp.stats().duplicates_dropped, 1u);
  EXPECT_EQ(tp.stats().acks_sent, 2u);
  EXPECT_EQ(stack.last_dst(), NodeId{2});
  routing::RoutingView ack;
  ASSERT_TRUE(routing::view_routing(stack.last_frame(), ack));
  serialize::Reader r{ack.body.data(), ack.body.size()};
  EXPECT_EQ(r.u8(), 2);  // kAck
  EXPECT_EQ(r.varint(), 5u);  // the fragment's epoch, msg id and index
  EXPECT_EQ(r.varint(), 1u);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_TRUE(r.exhausted());
}

// The fuzz double keeps UdpStack's timer contract: a fired timer's id is
// spent, so cancelling it, or an id never issued, spares a later timer.
TEST(FuzzStack, CancellingAFiredTimerSparesALaterOne) {
  fuzz::FuzzStack stack;
  int fired = 0;
  const EventId spent = stack.schedule_after(duration::millis(1), [&] { fired++; });
  stack.advance(duration::millis(1));
  ASSERT_EQ(fired, 1);
  stack.schedule_after(duration::millis(1), [&] { fired++; });
  stack.cancel(spent);
  stack.cancel(EventId{987654321});
  stack.advance(duration::millis(2));
  EXPECT_EQ(fired, 2);
}

// The fire budget bounds a timer that re-arms itself on every firing, as a
// retransmission chain does.
TEST(FuzzStack, AdvanceStopsAfterItsFireBudget) {
  fuzz::FuzzStack stack;
  int fired = 0;
  std::function<void()> rearm = [&] {
    fired++;
    stack.schedule_after(duration::millis(1), rearm);
  };
  stack.schedule_after(duration::millis(1), rearm);
  stack.advance(duration::seconds(1), 5);
  EXPECT_EQ(fired, 5);
}

// A spent budget leaves the clock at the last timer that fired, not past
// the timers still due; with nothing due the clock reaches `until`.
TEST(FuzzStack, SpentBudgetLeavesTheClockAtTheLastFiring) {
  fuzz::FuzzStack stack;
  std::vector<Time> fired_at;
  for (int i = 1; i <= 3; ++i) {
    stack.schedule_after(duration::millis(i), [&] { fired_at.push_back(stack.now()); });
  }
  stack.advance(duration::seconds(1), 2);
  EXPECT_EQ(fired_at, (std::vector<Time>{duration::millis(1), duration::millis(2)}));
  EXPECT_EQ(stack.now(), duration::millis(2));
  stack.advance(duration::seconds(1));
  EXPECT_EQ(fired_at.back(), duration::millis(3));
  EXPECT_EQ(stack.now(), duration::seconds(1));
}

}  // namespace
}  // namespace ndsm::transport
