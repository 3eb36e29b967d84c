#pragma once
// Reliable message transport (§3.6): asynchronous, message-oriented
// delivery with per-fragment acknowledgement, retransmission with
// exponential backoff, fragmentation/reassembly (wireless media have small
// MTUs — Bluetooth 339 B, sensor radios 128 B), and duplicate suppression.
//
// Semantics: at-most-once delivery per message, no cross-message ordering
// guarantee (each message is independent, matching the paper's requirement
// for "asynchronous connections"). Senders may register a completion
// callback to learn whether the message was fully acknowledged.
//
// Duplicate suppression: message ids are per-sender monotone, and every
// frame carries the sender incarnation's epoch. The receiver keeps, per
// (peer, epoch), the completed ids in a DedupWindow (the one the routers
// use for floods, common/dedup_window.hpp): a monotone floor that advances
// over contiguously completed ids, plus at most `dedup_window` completed
// ids above it. A completed message is never re-delivered, however late
// a duplicate of it arrives (e.g. by delay-jitter faults). An incomplete
// id is given up on (its frames acked and dropped) only once more than
// `dedup_window` later ids completed first, which the sender's retry
// schedule cannot produce. A new (higher) epoch — the sender crashed and
// restarted, restarting its id sequence — resets the peer's window;
// frames and acks from older epochs are dropped, so a delayed pre-crash
// ack can never acknowledge a post-restart message.
//
// Acks ride on replies: every fragment is acked, but the ack of the
// fragment that completes a message is held while that message's
// receiver runs. The first fragment of the first new message the receiver
// sends back to the same peer during that up-call carries it (a
// kAckedFragment frame: the ack's epoch, msg id and index ahead of an
// ordinary fragment), so a request answered inside its up-call costs one
// frame each way. If the up-call sends the peer nothing, the ack leaves on
// its own when the up-call returns, at the same instant: there is no ack
// delay, timer or option, and one-way traffic puts the same bytes on the
// wire as a transport without carried acks. Duplicates and fragments that
// leave their message incomplete are acked at once, and retransmissions
// never carry an ack.
//
// Frames carry no trace context of their own. The routing header's is the
// frame's context: the transport stamps it by sending under the message's
// context, and reads it back as the context the router delivers the frame
// under (obs::active_trace()). Receivers run under a `deliver` span that
// descends from it.
//
// A one-fragment message is delivered straight from its frame: it takes
// no reassembly entry and arms no reassembly GC timer. Multi-fragment
// messages reassemble under the GC described at
// TransportConfig::reassembly_timeout.
//
// The transport must not be destroyed while it handles a frame, that is
// inside a receiver up-call or a completion callback run for an ack a
// fragment carried: the held ack and the fragment are still to be handled
// when those return. The destructor checks this (NDSM_INVARIANT).

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/dedup_window.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "routing/router.hpp"
#include "serialize/codec.hpp"
#include "transport/ports.hpp"

namespace ndsm::transport {

using routing::Router;

// Upper bound on the fragment count a single message may declare, on both
// sides: send() rejects larger payloads up front, and the receiver drops
// fragments declaring more (a hostile count would otherwise size the
// reassembly buffers — a 2^60 prefix is an OOM, not a message).
inline constexpr std::size_t kMaxFragmentsPerMessage = 4096;

struct TransportConfig {
  std::size_t max_fragment_bytes = 96;  // payload bytes per fragment
  Time initial_rto = duration::millis(200);
  double rto_backoff = 2.0;
  int max_retries = 5;
  std::size_t dedup_window = 1024;  // completed ids held per peer above its floor
  // A partially reassembled inbound message whose sender has gone quiet
  // for this long is discarded (the sender has exhausted its retries long
  // before; without this, one lost tail fragment leaks reassembly state
  // forever). Must exceed the worst-case retry schedule.
  Time reassembly_timeout = duration::seconds(30);
};

struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_failed = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;         // standalone ack frames put on the wire
  std::uint64_t acks_piggybacked = 0;  // acks carried on a reply's first fragment
  std::uint64_t duplicates_dropped = 0;
  // Frames that failed wire validation: truncated/corrupt fields, unknown
  // frame kinds, zero or oversized fragment counts, inconsistent counts
  // across one message. Decoders fail closed — a malformed frame is
  // counted and dropped, never asserted on. Simulated bytes are only ever
  // produced by our own Writer, so in any sim run this staying zero is an
  // encoder-correctness invariant (the chaos soak pins it); nonzero counts
  // are expected only from real sockets (net::UdpStack) fed hostile or
  // stray datagrams.
  std::uint64_t malformed_dropped = 0;
  std::uint64_t stale_epoch_dropped = 0;   // frames/acks from a pre-restart peer incarnation
  std::uint64_t reassemblies_expired = 0;  // half-received messages GC'd
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t payload_bytes_delivered = 0;
};

class ReliableTransport {
 public:
  using Receiver = std::function<void(NodeId src, const Bytes& payload)>;
  using CompletionHandler = std::function<void(Status)>;

  explicit ReliableTransport(Router& router, TransportConfig config = {});
  ~ReliableTransport();

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  // Queue `payload` for reliable delivery to `dst`:`port`. `done` (may be
  // empty) fires exactly once with kOk after full acknowledgement, or an
  // error after retries are exhausted.
  Status send(NodeId dst, Port port, Bytes payload, CompletionHandler done = nullptr);

  // Bind the inbound handler for `port`. Binding a port that already has
  // a receiver is a wiring bug (the old handler would silently stop
  // hearing its messages): it logs an error and throws std::logic_error
  // in every build type. Use clear_receiver first to intentionally rebind.
  void set_receiver(Port port, Receiver receiver);
  void clear_receiver(Port port) { receivers_.erase(port); }

  [[nodiscard]] NodeId self() const { return router_.self(); }
  [[nodiscard]] Router& router() { return router_; }
  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  // Deterministic trace/span id source for this incarnation. Upper layers
  // (discovery, transactions) draw span ids from here to bridge async
  // gaps (pending queries, push timers) in one causal trace.
  [[nodiscard]] obs::TraceIdAllocator& trace_ids() { return trace_ids_; }
  // In-flight state introspection (tests of the failure path assert both
  // drain to zero after retries exhaust).
  [[nodiscard]] std::size_t outbox_size() const { return outbox_.size(); }
  [[nodiscard]] std::size_t reassembly_count() const { return inbox_.size(); }
  // Fragments of in-flight messages that no ack has covered yet.
  [[nodiscard]] std::size_t unacked_fragments() const {
    std::size_t n = 0;
    for (const auto& [id, msg] : outbox_) n += msg.unacked;
    return n;
  }

 private:
  // kAckedFragment is an ack (epoch, msg id, index) followed by a
  // kFragment body; the routing header's trace context serves both.
  enum class FrameKind : std::uint8_t { kFragment = 1, kAck = 2, kAckedFragment = 3 };

  // One fragment's acknowledgement: the epoch of the incarnation that sent
  // the fragment, its message id and its index.
  struct AckRef {
    std::uint64_t epoch = 0;
    std::uint64_t msg_id = 0;
    std::uint64_t index = 0;
  };

  // A fragment's wire fields; `data` aliases the received frame.
  struct Fragment {
    AckRef id;  // epoch, msg id, index: what its ack echoes
    Port port = 0;
    std::uint64_t count = 0;
    std::span<const std::uint8_t> data;
  };

  // The ack held while a receiver runs (see the header comment); `peer` is
  // invalid when none is held.
  struct HeldAck {
    NodeId peer;
    AckRef ack;
    obs::TraceContext trace;
  };

  struct OutMessage {
    NodeId dst;
    Port port;
    Bytes payload;
    std::vector<bool> acked;      // per fragment
    std::size_t unacked = 0;
    int attempts = 0;
    Time rto;
    Time sent_at = 0;  // first transmission, for the RTT histogram
    EventId timer = EventId::invalid();
    CompletionHandler done;
    // Causal context stamped on every fragment's routing header (span_id =
    // this message's wire span) and the span that issued the send, if any.
    obs::TraceContext trace;
    std::uint64_t parent_span = 0;
  };

  struct InMessage {
    std::vector<Bytes> fragments;
    std::vector<bool> have;
    std::size_t received = 0;
    Port port = 0;
    Time last_fragment_at = 0;        // refreshed per fragment; drives the GC
    EventId gc = EventId::invalid();  // reassembly-timeout timer
  };

  void on_frame(NodeId src, const Bytes& frame);
  [[nodiscard]] static std::optional<AckRef> read_ack(serialize::Reader& r);
  [[nodiscard]] std::optional<Fragment> read_fragment(serialize::Reader& r) const;
  // True when `f` would join a partial message of the current incarnation
  // that declared another fragment count.
  [[nodiscard]] bool count_conflicts(NodeId src, const Fragment& f) const;
  void on_fragment(NodeId src, const Fragment& f, const obs::TraceContext& ctx);
  void on_ack(NodeId src, const AckRef& ack, const obs::TraceContext& ctx);
  void send_ack(NodeId dst, const AckRef& ack, const obs::TraceContext& ctx);
  // Hands a complete message to its receiver, holding `ack` for the
  // receiver's first message back to `src`.
  void deliver(NodeId src, Port port, const Bytes& payload, const AckRef& ack,
               const obs::TraceContext& ctx);
  // Drop all reassembly state for `src` (stale partials from an older
  // sender incarnation whose msg ids may collide with the new one's).
  void purge_inbox(NodeId src);
  void on_reassembly_timeout(NodeId src, std::uint64_t msg_id);
  void transmit_fragments(std::uint64_t msg_id, OutMessage& msg, bool only_unacked);
  void arm_timer(std::uint64_t msg_id);
  void on_timeout(std::uint64_t msg_id);
  void finish(std::uint64_t msg_id, Status status);
  [[nodiscard]] std::size_t fragment_count(std::size_t payload_size) const;

  // Registers all counter views, returns the RTT histogram (called from
  // the ctor init list to seed rtt_ms_).
  obs::Histogram& register_metrics();

  Router& router_;
  TransportConfig config_;
  TransportStats stats_;
  obs::MetricGroup metrics_;
  obs::Histogram& rtt_ms_;  // registry-owned, registered via metrics_
  // Incarnation epoch stamped on every outbound frame and echoed in acks.
  // Drawn from the stack at construction (sim: the executed-event count, a
  // pure function of the event sequence so twin runs agree; UDP: a
  // realtime-derived monotone counter): strictly greater after any
  // crash/restart of this node.
  std::uint64_t epoch_;
  // Trace/span ids mix in (self, epoch_) so twin runs agree and restarted
  // incarnations never collide. The counter advances on every send even
  // with tracing disabled — allocator state must never depend on the
  // tracing switch (behaviour neutrality).
  obs::TraceIdAllocator trace_ids_;
  std::uint64_t next_msg_id_ = 1;
  std::unordered_map<std::uint64_t, OutMessage> outbox_;
  // Keyed by (src, msg_id).
  std::map<std::pair<NodeId, std::uint64_t>, InMessage> inbox_;
  struct CompletedWindow {
    std::uint64_t epoch = 0;  // peer incarnation these ids belong to
    DedupWindow ids;
  };
  std::unordered_map<NodeId, CompletedWindow> completed_;
  std::unordered_map<Port, Receiver> receivers_;
  // Messages to self, each delivered in the next event.
  net::RequestTable<std::function<void()>> local_;
  HeldAck held_ack_;
  // Fragment frames being handled right now (more than one when an
  // up-call pumps the stack); must be zero at destruction.
  int frame_depth_ = 0;
};

}  // namespace ndsm::transport
