#include "discovery/centralized.hpp"

#include <cassert>
#include <limits>

#include "obs/trace.hpp"

namespace ndsm::discovery {

CentralizedDiscovery::CentralizedDiscovery(transport::ReliableTransport& transport,
                                           std::vector<NodeId> directories,
                                           MirrorPolicy policy)
    : transport_(transport),
      directories_(std::move(directories)),
      policy_(policy),
      table_(transport.self()),
      queries_(transport.router().stack(), [this](std::uint64_t query_id, PendingQuery query) {
        on_query_timeout(query_id, std::move(query));
      }) {
  assert(!directories_.empty());
  // Stagger round-robin start positions across clients so synchronized
  // query waves do not all land on the same mirror.
  rr_next_ = static_cast<std::size_t>(transport.self().value());
  register_stats_metrics("centralized", static_cast<std::int64_t>(transport.self().value()));
  transport_.set_receiver(transport::ports::kDiscoveryReplyCent,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

CentralizedDiscovery::~CentralizedDiscovery() {
  transport_.clear_receiver(transport::ports::kDiscoveryReplyCent);
  auto& stack = transport_.router().stack();
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [id, renewal] : renewals_) stack.cancel(renewal);
}

NodeId CentralizedDiscovery::pick_directory() {
  switch (policy_) {
    case MirrorPolicy::kPrimaryOnly:
      return directories_.front();
    case MirrorPolicy::kRoundRobin: {
      const NodeId d = directories_[rr_next_ % directories_.size()];
      rr_next_++;
      return d;
    }
    case MirrorPolicy::kNearest: {
      auto& stack = transport_.router().stack();
      const Vec2 here = stack.self_position();
      NodeId best = directories_.front();
      double best_d = std::numeric_limits<double>::infinity();
      for (const NodeId d : directories_) {
        const auto pos = stack.position_of(d);
        if (!pos) continue;  // backend has no position for this mirror
        const double dist_m = distance(here, *pos);
        if (dist_m < best_d) {
          best_d = dist_m;
          best = d;
        }
      }
      return best;
    }
  }
  return directories_.front();
}

ServiceId CentralizedDiscovery::register_service(qos::SupplierQos qos, Time lease) {
  const ServiceId id = table_.add_own(std::move(qos), lease, transport_.router().stack().now());
  stats_.registrations++;
  send_register(id);
  return id;
}

void CentralizedDiscovery::send_register(ServiceId id) {
  auto& stack = transport_.router().stack();
  // A renewal keeps the registration date and moves only the expiry.
  const ServiceRecord* record = table_.renew(id, stack.now());
  if (record == nullptr) return;
  const Time expires = record->expires;
  transport_.send(directories_.front(), transport::ports::kDiscovery, encode_register(*record));
  if (expires != kTimeNever) {
    // Renewed again at half-life.
    renewals_[id] =
        stack.schedule_after((expires - stack.now()) / 2, [this, id] { send_register(id); });
  }
}

void CentralizedDiscovery::unregister_service(ServiceId id) {
  if (!table_.remove_own(id)) return;
  const auto it = renewals_.find(id);
  if (it != renewals_.end()) {
    transport_.router().stack().cancel(it->second);
    renewals_.erase(it);
  }
  stats_.unregistrations++;
  transport_.send(directories_.front(), transport::ports::kDiscovery, encode_unregister(id));
}

void CentralizedDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                                 std::uint32_t max_results, Time timeout) {
  stats_.queries_issued++;

  // The query gets its own span; the directory and the reply continue it,
  // so the whole lookup reads as one causal chain.
  const obs::TraceContext parent = obs::active_trace();
  obs::TraceContext ctx;
  ctx.span_id = transport_.trace_ids().next();
  ctx.trace_id = parent.valid() ? parent.trace_id : ctx.span_id;

  const NodeId directory = pick_directory();
  QueryMessage msg;
  msg.query_id = queries_.open(directory, PendingQuery{std::move(callback), ctx}, timeout);
  msg.reply_to = transport_.self();
  msg.reply_port = transport::ports::kDiscoveryReplyCent;
  msg.consumer = consumer;
  msg.max_results = max_results;

  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.event_traced("discovery.centralized", "query",
                        static_cast<std::int64_t>(transport_.self().value()), ctx.trace_id,
                        ctx.span_id, parent.span_id,
                        {{"query_id", std::to_string(msg.query_id)},
                         {"type", msg.consumer.service_type}});
  }

  const obs::ScopedTrace scope(ctx);
  transport_.send(directory, transport::ports::kDiscovery, encode_query(msg));
}

void CentralizedDiscovery::on_query_timeout(std::uint64_t query_id, PendingQuery query) {
  count_finished_query({});
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.event_traced("discovery.centralized", "query_timeout",
                        static_cast<std::int64_t>(transport_.self().value()),
                        query.trace.trace_id, query.trace.span_id, query.trace.span_id,
                        {{"query_id", std::to_string(query_id)}});
  }
  const obs::ScopedTrace scope(query.trace);
  query.callback({});
}

void CentralizedDiscovery::on_message(NodeId src, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  switch (*kind) {
    case MsgKind::kQueryReply: {
      auto reply = decode_query_reply(r);
      if (!reply) return;
      auto query = queries_.take(reply->query_id, src);
      if (!query) return;  // late reply after timeout
      const obs::TraceContext qctx = query->trace;
      count_finished_query(reply->records);
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled() && qctx.valid()) {
        // Parent on the reply's delivery, which descends from the
        // directory's serve span, else fall back to our own query span.
        const obs::TraceContext delivery = obs::active_trace();
        tracer.event_traced("discovery.centralized", "query_answered",
                            static_cast<std::int64_t>(transport_.self().value()),
                            qctx.trace_id, qctx.span_id,
                            delivery.valid() ? delivery.span_id : qctx.span_id,
                            {{"query_id", std::to_string(reply->query_id)},
                             {"records", std::to_string(reply->records.size())}});
      }
      const obs::ScopedTrace scope(qctx);
      query->callback(std::move(reply->records));
      break;
    }
    case MsgKind::kRegisterAck:
      break;  // fire-and-forget confirmation
    default:
      break;
  }
}

}  // namespace ndsm::discovery
