// Fuzz boundary: ReliableTransport fragment/ack parsing plus the routing
// frame decoder and relay underneath it, driven through a loopback
// net::Stack test double. The input is injected three times per run:
//   1. as the raw routing-frame payload (exercises the in-place routing
//      parser, the flood duplicate suppression and the relay on hostile
//      headers), then
//   2. wrapped in a valid flood header and
//   3. wrapped in a valid direct data header, both addressed to this node
//      with upper == kTransport, so the bytes land in
//      ReliableTransport::on_frame unmodified through each of
//      FloodingRouter's two receive paths — exactly what a hostile UDP
//      datagram achieves on the real backend.
// The receiver replies to every message it is handed, so the encoder of
// the ack a reply carries runs on whatever hostile frame completed it.
// Afterwards the clock advances through the retransmit/reassembly-GC
// schedule (bounded) so timer paths run against whatever state the
// injected frames created. Properties: no crash/assert/UB, every rejected
// frame is visible in malformed_dropped (fail closed, counted), a rejected
// frame acts on nothing (a carried ack whose fragment part fails
// validation acks nothing: the outbox and the open message's unacked
// fragments stay as they were), and a relayed frame is exactly
// encode_routing() of what was received with TTL - 1 and hops + 1.

#include "fuzz_stack.hpp"
#include "fuzz_target.hpp"
#include "routing/flooding.hpp"
#include "transport/reliable.hpp"

using namespace ndsm;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzz::FuzzStack stack{NodeId{1}};
  routing::FloodingRouter router{stack};
  transport::TransportConfig cfg;
  cfg.initial_rto = duration::millis(10);
  cfg.max_retries = 2;
  cfg.reassembly_timeout = duration::millis(50);
  transport::ReliableTransport tp{router, cfg};

  std::uint64_t delivered = 0;
  tp.set_receiver(10, [&](NodeId src, const Bytes& payload) {
    delivered += payload.size();
    (void)tp.send(src, 10, Bytes{0x72});
  });

  // Open outbox state so injected bytes that happen to parse as acks have
  // something to ack (msg_id 1, two fragments, epoch FuzzStack::kEpoch).
  Bytes payload(150, 0xab);
  NDSM_FUZZ_CHECK(tp.send(NodeId{2}, 10, std::move(payload)).is_ok());

  const Bytes input(data, data + size);
  const NodeId peer{2};

  // Each injection reaches on_frame at most once; one the transport drops
  // as malformed must leave its send state untouched.
  const auto inject = [&](Bytes frame) {
    const std::uint64_t malformed = tp.stats().malformed_dropped;
    const std::size_t outbox = tp.outbox_size();
    const std::size_t unacked = tp.unacked_fragments();
    stack.inject(net::Proto::kRouting, peer, NodeId{1}, std::move(frame));
    if (tp.stats().malformed_dropped != malformed) {
      NDSM_FUZZ_CHECK(tp.outbox_size() == outbox);
      NDSM_FUZZ_CHECK(tp.unacked_fragments() == unacked);
    }
  };

  // Path 1: hostile routing frame.
  const std::uint64_t forwarded = router.stats().data_forwarded;
  inject(input);
  if (router.stats().data_forwarded != forwarded) {
    routing::RoutingHeader expect;
    Bytes body;
    NDSM_FUZZ_CHECK(routing::decode_routing(input, expect, body));
    NDSM_FUZZ_CHECK(expect.ttl > 0);
    expect.ttl--;
    if (expect.trace.hops < 255) expect.trace.hops++;
    NDSM_FUZZ_CHECK(stack.last_frame() == routing::encode_routing(expect, body));
  }

  // Path 2: hostile transport frame behind a well-formed routing header,
  // a flood's and then a direct data frame's.
  routing::RoutingHeader h;
  h.kind = routing::RoutingKind::kFlood;
  h.origin = peer;
  h.dst = NodeId{1};
  h.seq = 1;
  h.ttl = 4;
  h.upper = net::Proto::kTransport;
  inject(routing::encode_routing(h, input));
  h.kind = routing::RoutingKind::kData;
  h.ttl = routing::Router::kDefaultTtl;
  inject(routing::encode_routing(h, input));

  // Drive the retransmit chain and the reassembly GC over the state the
  // frames left behind.
  stack.advance(duration::millis(200));

  // Whatever happened, the transport's books must still balance: in-flight
  // state is introspectable and the process is alive.
  (void)tp.outbox_size();
  (void)tp.reassembly_count();
  (void)tp.stats().malformed_dropped;
  (void)delivered;
  return 0;
}
