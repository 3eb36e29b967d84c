#include "transport/reliable.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"
#include "serialize/codec.hpp"

namespace ndsm::transport {

ReliableTransport::ReliableTransport(Router& router, TransportConfig config)
    : router_(router), config_(config), rtt_ms_(register_metrics()),
      epoch_(router.stack().incarnation_epoch()),
      trace_ids_(router.self(), epoch_),
      local_(router.stack(), [](std::uint64_t, std::function<void()> deliver) { deliver(); }) {
  assert(config_.max_fragment_bytes > 0);
  router_.set_delivery_handler(
      routing::Proto::kTransport,
      [this](NodeId src, const Bytes& frame) { on_frame(src, frame); });
}

obs::Histogram& ReliableTransport::register_metrics() {
  metrics_.set_labels("transport.reliable", static_cast<std::int64_t>(router_.self().value()));
  metrics_.counter("transport.reliable.messages_sent", &stats_.messages_sent);
  metrics_.counter("transport.reliable.messages_delivered", &stats_.messages_delivered);
  metrics_.counter("transport.reliable.messages_failed", &stats_.messages_failed);
  metrics_.counter("transport.reliable.fragments_sent", &stats_.fragments_sent);
  metrics_.counter("transport.reliable.retransmissions", &stats_.retransmissions);
  metrics_.counter("transport.reliable.acks_sent", &stats_.acks_sent);
  metrics_.counter("transport.reliable.acks_piggybacked", &stats_.acks_piggybacked);
  metrics_.counter("transport.reliable.duplicates_dropped", &stats_.duplicates_dropped);
  metrics_.counter("transport.reliable.malformed_dropped", &stats_.malformed_dropped);
  metrics_.counter("transport.reliable.stale_epoch_dropped", &stats_.stale_epoch_dropped);
  metrics_.counter("transport.reliable.reassemblies_expired", &stats_.reassemblies_expired);
  metrics_.counter("transport.reliable.payload_bytes_sent", &stats_.payload_bytes_sent);
  metrics_.counter("transport.reliable.payload_bytes_delivered",
                   &stats_.payload_bytes_delivered);
  // A message whose last ack rides on the peer's reply completes when the
  // reply arrives, so on a real clock (UDP) the RTT includes the peer's
  // handler time.
  return metrics_.histogram("transport.reliable.rtt_ms", obs::latency_ms_bounds());
}

ReliableTransport::~ReliableTransport() {
  NDSM_INVARIANT(frame_depth_ == 0,
                 "ReliableTransport destroyed inside its own delivery up-call");
  router_.clear_delivery_handler(routing::Proto::kTransport);
  for (auto& [id, msg] : outbox_) {
    if (msg.timer.valid()) router_.stack().cancel(msg.timer);
  }
  for (auto& [key, in] : inbox_) {
    if (in.gc.valid()) router_.stack().cancel(in.gc);
  }
}

void ReliableTransport::set_receiver(Port port, Receiver receiver) {
  if (receivers_.count(port) != 0) {
    // Hard error in every build type: an assert-only check let release
    // builds silently overwrite the old handler, which then just stopped
    // hearing its messages — the worst kind of wiring bug to debug.
    NDSM_ERROR("transport", "node " << self().value() << ": duplicate bind on port " << port
                                    << " (" << ports::name(port)
                                    << ") would silently drop the previous receiver");
    throw std::logic_error("duplicate transport port bind on port " +
                           std::string(ports::name(port)));
  }
  receivers_[port] = std::move(receiver);
}

std::size_t ReliableTransport::fragment_count(std::size_t payload_size) const {
  if (payload_size == 0) return 1;
  return (payload_size + config_.max_fragment_bytes - 1) / config_.max_fragment_bytes;
}

Status ReliableTransport::send(NodeId dst, Port port, Bytes payload, CompletionHandler done) {
  if (fragment_count(payload.size()) > kMaxFragmentsPerMessage) {
    return Status{ErrorCode::kInvalidArgument, "payload exceeds kMaxFragmentsPerMessage"};
  }
  stats_.messages_sent++;
  stats_.payload_bytes_sent += payload.size();
  // Every send gets a wire span: continue the caller's trace if one is
  // active, else root a new one (root trace id == root span id). Exactly
  // one id per send, drawn unconditionally, so the allocator stream is
  // identical whether tracing is on or off.
  const obs::TraceContext parent = obs::active_trace();
  obs::TraceContext ctx;
  ctx.span_id = trace_ids_.next();
  ctx.trace_id = parent.valid() ? parent.trace_id : ctx.span_id;
  if (dst == self()) {
    // Local delivery: in the next event, always succeeds.
    local_.open(self(), [this, port, ctx, payload = std::move(payload),
                         done = std::move(done)]() {
      stats_.messages_delivered++;
      stats_.payload_bytes_delivered += payload.size();
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled()) {
        tracer.event_traced("transport", "deliver_local",
                            static_cast<std::int64_t>(self().value()), ctx.trace_id,
                            ctx.span_id, 0, {{"port", std::string(ports::name(port))}});
      }
      const obs::ScopedTrace scope(ctx);
      const auto it = receivers_.find(port);
      if (it != receivers_.end()) it->second(self(), payload);
      if (done) done(Status::ok());
    }, 0);
    return Status::ok();
  }
  const std::uint64_t id = next_msg_id_++;
  OutMessage msg;
  msg.dst = dst;
  msg.port = port;
  msg.payload = std::move(payload);
  const std::size_t frags = fragment_count(msg.payload.size());
  msg.acked.assign(frags, false);
  msg.unacked = frags;
  msg.rto = config_.initial_rto;
  msg.sent_at = router_.stack().now();
  msg.done = std::move(done);
  msg.trace = ctx;
  msg.parent_span = parent.span_id;
  auto [it, inserted] = outbox_.emplace(id, std::move(msg));
  assert(inserted);
  transmit_fragments(id, it->second, false);
  arm_timer(id);
  return Status::ok();
}

void ReliableTransport::transmit_fragments(std::uint64_t msg_id, OutMessage& msg,
                                           bool only_unacked) {
  const std::size_t frags = msg.acked.size();
  for (std::size_t i = 0; i < frags; ++i) {
    if (only_unacked && msg.acked[i]) continue;
    const std::size_t begin = i * config_.max_fragment_bytes;
    const std::size_t end = std::min(msg.payload.size(), begin + config_.max_fragment_bytes);
    serialize::Writer w;
    if (!only_unacked && i == 0 && held_ack_.peer == msg.dst) {
      // The ack held for this peer's message rides on the reply.
      w.u8(static_cast<std::uint8_t>(FrameKind::kAckedFragment));
      w.varint(held_ack_.ack.epoch);
      w.varint(held_ack_.ack.msg_id);
      w.varint(held_ack_.ack.index);
      held_ack_.peer = NodeId::invalid();
      stats_.acks_piggybacked++;
    } else {
      w.u8(static_cast<std::uint8_t>(FrameKind::kFragment));
    }
    w.varint(epoch_);
    w.varint(msg_id);
    w.u16(msg.port);
    w.varint(i);
    w.varint(frags);
    w.bytes(std::span<const std::uint8_t>{msg.payload}.subspan(begin, end - begin));
    stats_.fragments_sent++;
    if (only_unacked) {
      stats_.retransmissions++;
      if (obs::TraceEvent* ev = obs::Tracer::instance().begin_instant(
              "transport", "retransmit", static_cast<std::int64_t>(self().value()),
              msg.trace.trace_id, msg.trace.span_id, 0, 3)) {
        ev->set_kv(0, "msg_id", msg_id);
        ev->set_kv(1, "fragment", i);
        ev->set_kv(2, "attempt", static_cast<std::uint64_t>(msg.attempts));
      }
    }
    // Activate the message's context for the router so the routing header,
    // the frame's only context, is stamped with the wire span (not
    // whatever scope issued send()).
    const obs::ScopedTrace scope(msg.trace);
    router_.send(msg.dst, routing::Proto::kTransport, std::move(w).take());
  }
}

void ReliableTransport::arm_timer(std::uint64_t msg_id) {
  auto& msg = outbox_.at(msg_id);
  msg.timer = router_.stack().schedule_after(msg.rto,
                                                   [this, msg_id] { on_timeout(msg_id); });
}

void ReliableTransport::on_timeout(std::uint64_t msg_id) {
  const auto it = outbox_.find(msg_id);
  if (it == outbox_.end()) return;
  OutMessage& msg = it->second;
  msg.timer = EventId::invalid();
  if (++msg.attempts > config_.max_retries) {
    finish(msg_id, Status{ErrorCode::kTimeout, "retries exhausted"});
    return;
  }
  msg.rto = static_cast<Time>(static_cast<double>(msg.rto) * config_.rto_backoff);
  transmit_fragments(msg_id, msg, true);
  arm_timer(msg_id);
}

void ReliableTransport::finish(std::uint64_t msg_id, Status status) {
  const auto it = outbox_.find(msg_id);
  if (it == outbox_.end()) return;
  if (it->second.timer.valid()) router_.stack().cancel(it->second.timer);
  auto done = std::move(it->second.done);
  if (status.is_ok()) {
    rtt_ms_.observe(to_seconds(router_.stack().now() - it->second.sent_at) * 1e3);
  } else {
    stats_.messages_failed++;
  }
  // The message's wire span: first transmission to final ack (or retry
  // exhaustion). Children on the receiver hang off its span id. Filled
  // into the ring slot in place, and the clean single-fragment path skips
  // the kv detail, so recording stays allocation-free at steady state —
  // the tracing-overhead gate in run_benches.sh holds this to <5% of
  // transport throughput.
  if (obs::TraceEvent* ev = obs::Tracer::instance().begin_record()) {
    ev->at = it->second.sent_at;
    ev->duration = std::max<Time>(0, router_.stack().now() - it->second.sent_at);
    ev->component = "transport";
    ev->name = status.is_ok() ? "message" : "message_failed";
    ev->node = static_cast<std::int64_t>(self().value());
    ev->trace_id = it->second.trace.trace_id;
    ev->span_id = it->second.trace.span_id;
    ev->parent_span = it->second.parent_span;
    ev->kv.clear();
    if (it->second.acked.size() > 1 || it->second.attempts > 0 || !status.is_ok()) {
      ev->kv.resize(4);
      ev->set_kv(0, "msg_id", msg_id);
      ev->set_kv(1, "dst", it->second.dst.value());
      ev->set_kv(2, "fragments", it->second.acked.size());
      ev->set_kv(3, "attempts", static_cast<std::uint64_t>(it->second.attempts));
    }
  }
  outbox_.erase(it);
  if (done) done(status);
}

void ReliableTransport::on_frame(NodeId src, const Bytes& frame) {
  // Untrusted-byte boundary (DESIGN §15): on the UDP backend these bytes
  // come straight off a socket. Every malformed shape fails closed into
  // stats_.malformed_dropped; nothing in here may assert on wire content.
  // A frame is validated whole before either of its parts is acted on.
  // Bytes after the last field are ignored, as the routing header ignores
  // them, so a frame that still ends in the trace trailer older nodes
  // wrote is handled as if it had none.
  serialize::Reader r{frame};
  const auto kind = r.u8();
  std::optional<AckRef> ack;
  std::optional<Fragment> fragment;
  bool valid = kind.has_value();
  if (valid) {
    switch (static_cast<FrameKind>(*kind)) {
      case FrameKind::kFragment:
        fragment = read_fragment(r);
        valid = fragment.has_value();
        break;
      case FrameKind::kAck:
        ack = read_ack(r);
        valid = ack.has_value();
        break;
      case FrameKind::kAckedFragment:
        ack = read_ack(r);
        if (ack) fragment = read_fragment(r);
        valid = fragment && !count_conflicts(src, *fragment);
        break;
      default:
        valid = false;
        break;
    }
  }
  if (!valid) {
    stats_.malformed_dropped++;
    return;
  }
  // The frame's context is its routing header's, which the router keeps
  // active while it delivers the frame here.
  const obs::TraceContext ctx = obs::active_trace();
  if (!fragment) {
    if (ack) on_ack(src, *ack, ctx);  // a standalone ack
    return;
  }
  // A carried ack is applied first, as if it had arrived as its own frame
  // ahead of the fragment. Its completion callback may run here, so
  // on_fragment looks all state up afresh.
  frame_depth_++;
  if (ack) on_ack(src, *ack, ctx);
  on_fragment(src, *fragment, ctx);
  frame_depth_--;
}

std::optional<ReliableTransport::AckRef> ReliableTransport::read_ack(serialize::Reader& r) {
  const auto epoch = r.varint();
  const auto msg_id = r.varint();
  const auto index = r.varint();
  if (!epoch || !msg_id || !index) return std::nullopt;
  return AckRef{*epoch, *msg_id, *index};
}

std::optional<ReliableTransport::Fragment> ReliableTransport::read_fragment(
    serialize::Reader& r) const {
  const auto epoch = r.varint();
  const auto msg_id = r.varint();
  const auto port = r.u16();
  const auto index = r.varint();
  const auto count = r.varint();
  const auto data = r.bytes_view();
  // Truncated fields, a zero/oversized count, or an out-of-range index.
  // The count bound is what keeps the resize() sizing the reassembly
  // buffers honest.
  if (!epoch || !msg_id || !port || !index || !count || !data || *count == 0 ||
      *index >= *count || *count > kMaxFragmentsPerMessage) {
    return std::nullopt;
  }
  return Fragment{AckRef{*epoch, *msg_id, *index}, *port, *count, *data};
}

bool ReliableTransport::count_conflicts(NodeId src, const Fragment& f) const {
  const auto window = completed_.find(src);
  if (window == completed_.end() || window->second.epoch != f.id.epoch ||
      window->second.ids.contains(f.id.msg_id)) {
    return false;  // no partial this fragment could join
  }
  const auto it = inbox_.find({src, f.id.msg_id});
  return it != inbox_.end() && it->second.fragments.size() != f.count;
}

void ReliableTransport::purge_inbox(NodeId src) {
  auto it = inbox_.lower_bound({src, 0});
  while (it != inbox_.end() && it->first.first == src) {
    if (it->second.gc.valid()) router_.stack().cancel(it->second.gc);
    it = inbox_.erase(it);
  }
}

void ReliableTransport::send_ack(NodeId dst, const AckRef& ack, const obs::TraceContext& ctx) {
  // The ack's routing header echoes the fragment's context so the
  // sender's on_ack can attribute it.
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(FrameKind::kAck));
  w.varint(ack.epoch);
  w.varint(ack.msg_id);
  w.varint(ack.index);
  stats_.acks_sent++;
  const obs::ScopedTrace scope(ctx);
  router_.send(dst, routing::Proto::kTransport, std::move(w).take());
}

void ReliableTransport::on_fragment(NodeId src, const Fragment& f, const obs::TraceContext& ctx) {
  const std::uint64_t msg_id = f.id.msg_id;
  auto& window =
      completed_.try_emplace(src, CompletedWindow{0, DedupWindow{config_.dedup_window}})
          .first->second;
  if (f.id.epoch < window.epoch) {
    // Delayed frame from a pre-restart incarnation of the peer; its msg-id
    // space has been reused, so it must not touch current state (and the
    // sender it came from is gone, so no ack either).
    stats_.stale_epoch_dropped++;
    // Annotated drop: the pre-restart trace ends here, visibly.
    if (obs::TraceEvent* ev = obs::Tracer::instance().begin_instant(
            "transport", "stale_epoch_drop", static_cast<std::int64_t>(self().value()),
            ctx.trace_id, ctx.span_id, ctx.span_id, 3)) {
      ev->set_kv(0, "src", src.value());
      ev->set_kv(1, "frame_epoch", f.id.epoch);
      ev->set_kv(2, "current_epoch", window.epoch);
    }
    return;
  }
  if (f.id.epoch > window.epoch) {
    // The peer restarted: fresh id sequence, fresh dedup state, and any
    // half-reassembled messages from the old incarnation are garbage.
    window = CompletedWindow{f.id.epoch, DedupWindow{config_.dedup_window}};
    purge_inbox(src);
  }

  // Every valid fragment is acked, duplicates too (the ack may have been
  // lost); only the ack of a fragment that completes its message waits
  // for the receiver (deliver()).
  if (window.ids.contains(msg_id)) {
    stats_.duplicates_dropped++;
    send_ack(src, f.id, ctx);
    return;
  }
  auto it = inbox_.find({src, msg_id});
  if (it == inbox_.end()) {
    if (f.count == 1) {
      // The whole message: no reassembly entry, no GC timer.
      window.ids.insert(msg_id);
      deliver(src, f.port, Bytes(f.data.begin(), f.data.end()), f.id, ctx);
      return;
    }
    it = inbox_.try_emplace({src, msg_id}).first;
    InMessage& in = it->second;
    in.fragments.resize(f.count);  // bounded by kMaxFragmentsPerMessage
    in.have.assign(f.count, false);
    in.port = f.port;
    // Arm the reassembly GC: if the sender gives up (retries exhausted)
    // with this message half-received, the state must not leak.
    in.gc = router_.stack().schedule_after(
        config_.reassembly_timeout,
        [this, src, msg_id] { on_reassembly_timeout(src, msg_id); });
  } else if (f.count != it->second.fragments.size()) {
    // Count changed mid-message: hostile or a bug. Dropped unacked.
    stats_.malformed_dropped++;
    return;
  }
  InMessage& in = it->second;
  in.last_fragment_at = router_.stack().now();
  if (in.have[f.id.index]) {
    stats_.duplicates_dropped++;
    send_ack(src, f.id, ctx);
    return;
  }
  in.have[f.id.index] = true;
  in.fragments[f.id.index].assign(f.data.begin(), f.data.end());
  in.received++;
  if (in.received < in.fragments.size()) {
    send_ack(src, f.id, ctx);
    return;
  }

  // Assemble and deliver.
  Bytes payload;
  for (const auto& frag : in.fragments) {
    payload.insert(payload.end(), frag.begin(), frag.end());
  }
  const Port dst_port = in.port;
  if (in.gc.valid()) router_.stack().cancel(in.gc);
  inbox_.erase(it);
  window.ids.insert(msg_id);
  deliver(src, dst_port, payload, f.id, ctx);
}

void ReliableTransport::deliver(NodeId src, Port port, const Bytes& payload, const AckRef& ack,
                                const obs::TraceContext& ctx) {
  stats_.messages_delivered++;
  stats_.payload_bytes_delivered += payload.size();
  // Delivery gets its own span id (drawn unconditionally) so work done in
  // the receiver nests under "deliver" rather than the remote wire span.
  // No kv: the sender is the parent span's node, and an empty kv keeps
  // this per-message event allocation-free (tracing-overhead budget).
  obs::TraceContext deliver_ctx = ctx;
  deliver_ctx.span_id = trace_ids_.next();
  if (ctx.valid()) {
    obs::Tracer::instance().begin_instant("transport", "deliver",
                                          static_cast<std::int64_t>(self().value()),
                                          ctx.trace_id, deliver_ctx.span_id, ctx.span_id);
  }
  const auto it = receivers_.find(port);
  if (it == receivers_.end()) {
    send_ack(src, ack, ctx);
    return;
  }
  // Hold the ack while the receiver runs (transmit_fragments may carry
  // it). A delivery nested in this up-call holds its own and restores ours.
  const HeldAck outer = std::exchange(held_ack_, HeldAck{src, ack, ctx});
  {
    const obs::ScopedTrace scope(deliver_ctx);
    it->second(src, payload);
  }
  const HeldAck left = std::exchange(held_ack_, outer);
  if (left.peer.valid()) send_ack(left.peer, left.ack, left.trace);
}

void ReliableTransport::on_reassembly_timeout(NodeId src, std::uint64_t msg_id) {
  const auto it = inbox_.find({src, msg_id});
  if (it == inbox_.end()) return;
  InMessage& in = it->second;
  in.gc = EventId::invalid();
  const Time now = router_.stack().now();
  const Time idle = now - in.last_fragment_at;
  if (idle < config_.reassembly_timeout) {
    // Fragments still trickling in; re-check when the timeout could next expire.
    in.gc = router_.stack().schedule_after(
        config_.reassembly_timeout - idle,
        [this, src, msg_id] { on_reassembly_timeout(src, msg_id); });
    return;
  }
  stats_.reassemblies_expired++;
  inbox_.erase(it);
}

void ReliableTransport::on_ack(NodeId src, const AckRef& ack, const obs::TraceContext& ctx) {
  if (ack.epoch != epoch_) {
    // An ack echoing another incarnation's epoch (delayed from before our
    // restart); our id space restarted, so it must not ack anything now.
    stats_.stale_epoch_dropped++;
    if (obs::TraceEvent* ev = obs::Tracer::instance().begin_instant(
            "transport", "stale_epoch_drop", static_cast<std::int64_t>(self().value()),
            ctx.trace_id, ctx.span_id, ctx.span_id, 3)) {
      ev->set_kv(0, "src", src.value());
      ev->set_kv(1, "ack_epoch", ack.epoch);
      ev->set_kv(2, "current_epoch", epoch_);
    }
    return;
  }
  const auto it = outbox_.find(ack.msg_id);
  if (it == outbox_.end()) return;
  OutMessage& msg = it->second;
  if (ack.index >= msg.acked.size() || msg.acked[ack.index]) return;
  msg.acked[ack.index] = true;
  if (--msg.unacked == 0) finish(ack.msg_id, Status::ok());
}

}  // namespace ndsm::transport
