#include "discovery/directory_server.hpp"

#include <cstdlib>

#include "obs/trace.hpp"

namespace ndsm::discovery {

DirectoryServer::DirectoryServer(transport::ReliableTransport& transport, Time sweep_period,
                                 recovery::StableStorage* stable)
    : transport_(transport),
      records_(transport.self()),
      sweeper_(transport.router().stack(), sweep_period, [this] { sweep_leases(); }) {
  if (stable != nullptr) {
    wal_ = std::make_unique<recovery::WriteAheadLog>(*stable);
    rehydrate();
  }
  transport_.set_receiver(transport::ports::kDiscovery,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
  sweeper_.start();
}

void DirectoryServer::log_mutation(recovery::LogKind kind, const ServiceRecord* record,
                                   ServiceId id) {
  if (!wal_) return;
  serialize::Value value;
  if (record != nullptr) {
    serialize::Writer w;
    record->encode(w);
    value = serialize::Value{std::move(w).take()};
  }
  wal_->append(kind, /*tx=*/0, id.to_string(), value);
}

void DirectoryServer::rehydrate() {
  // Every directory mutation is written outside a transaction, so the redo
  // applies each at its own record and leaves nothing in doubt.
  const Time now = transport_.router().stack().now();
  wal_->redo([&](const recovery::LogRecord& rec) {
    if (rec.kind == recovery::LogKind::kErase) {
      records_.remove_copy(ServiceId{std::strtoull(rec.key.c_str(), nullptr, 10)});
    } else if (rec.value.type() == serialize::Value::Type::kBytes) {
      serialize::Reader r{rec.value.as_bytes()};
      if (auto record = ServiceRecord::decode(r)) records_.keep(std::move(*record), now);
    }
  });
  stats_.records_rehydrated = records_.copy_count();
}

DirectoryServer::~DirectoryServer() {
  transport_.clear_receiver(transport::ports::kDiscovery);
  if (drain_.valid()) transport_.router().stack().cancel(drain_);
}

std::vector<ServiceRecord> DirectoryServer::snapshot() const { return records_.records(); }

void DirectoryServer::apply_register(ServiceRecord record, bool replicate_out) {
  stats_.registers++;
  log_mutation(recovery::LogKind::kPut, &record, record.id);
  if (replicate_out) replicate(record, /*removal=*/false);
  records_.keep(std::move(record), transport_.router().stack().now());
}

void DirectoryServer::apply_unregister(ServiceId id, bool replicate_out) {
  const auto record = records_.remove_copy(id);
  if (!record) return;
  stats_.unregisters++;
  log_mutation(recovery::LogKind::kErase, nullptr, id);
  if (replicate_out) replicate(*record, /*removal=*/true);
}

std::vector<ServiceRecord> DirectoryServer::match(const qos::ConsumerQos& consumer,
                                                  std::uint32_t max_results) {
  return records_.match(consumer, max_results, transport_.router().stack().now());
}

void DirectoryServer::replicate(const ServiceRecord& record, bool removal) {
  for (const NodeId mirror : mirrors_) {
    if (mirror == node()) continue;
    stats_.replications_sent++;
    transport_.send(mirror, transport::ports::kDiscovery, encode_replicate(record, removal));
  }
}

void DirectoryServer::serve_query(const QueryMessage& query, const obs::TraceContext& parent) {
  // The serve step gets its own span under the delivery of the client's
  // query, and the reply is sent under it. Queued queries kept their
  // delivery context in query_queue_, so the gap between this event and
  // the query span start is the directory queueing delay.
  obs::TraceContext ctx = parent;
  ctx.span_id = transport_.trace_ids().next();
  if (ctx.trace_id == 0) ctx.trace_id = ctx.span_id;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled() && parent.valid()) {
    tracer.event_traced("discovery.directory", "serve_query",
                        static_cast<std::int64_t>(node().value()), ctx.trace_id, ctx.span_id,
                        parent.span_id,
                        {{"query_id", std::to_string(query.query_id)},
                         {"records", std::to_string(records_.copy_count())}});
  }
  QueryReply reply;
  reply.query_id = query.query_id;
  reply.records = match(query.consumer, query.max_results);
  stats_.records_returned += reply.records.size();
  const obs::ScopedTrace scope(ctx);
  transport_.send(query.reply_to, query.reply_port, encode_query_reply(reply));
}

void DirectoryServer::drain_query_queue() {
  if (drain_.valid() || query_queue_.empty()) return;
  drain_ = transport_.router().stack().schedule_after(processing_time_, [this] {
    if (!query_queue_.empty()) {
      serve_query(query_queue_.front().query, query_queue_.front().trace);
      query_queue_.pop_front();
    }
    drain_ = EventId::invalid();
    drain_query_queue();
  });
}

void DirectoryServer::sweep_leases() {
  stats_.leases_expired += records_.evict(transport_.router().stack().now());
}

void DirectoryServer::on_message(NodeId src, const Bytes& frame) {
  const auto kind = peek_kind(frame);
  if (!kind) return;
  serialize::Reader r{frame};
  // ndsm-lint: allow(unchecked-reader): kind byte just validated by peek_kind
  (void)r.u8();
  switch (*kind) {
    case MsgKind::kRegister: {
      auto record = decode_register(r);
      if (!record) return;
      const ServiceId id = record->id;
      apply_register(std::move(*record), /*replicate_out=*/true);
      transport_.send(src, transport::ports::kDiscoveryReplyCent,
                      encode_register_ack(id, true));
      break;
    }
    case MsgKind::kUnregister: {
      const auto id = decode_unregister(r);
      if (!id) return;
      apply_unregister(*id, /*replicate_out=*/true);
      break;
    }
    case MsgKind::kQuery: {
      auto query = decode_query(r);
      if (!query) return;
      stats_.queries++;
      if (processing_time_ <= 0) {
        serve_query(*query, obs::active_trace());
      } else {
        query_queue_.push_back(QueuedQuery{std::move(*query), obs::active_trace()});
        drain_query_queue();
      }
      break;
    }
    case MsgKind::kReplicate: {
      auto rep = decode_replicate(r);
      if (!rep) return;
      stats_.replications_applied++;
      if (rep->second) {
        log_mutation(recovery::LogKind::kErase, nullptr, rep->first.id);
        records_.remove_copy(rep->first.id);
      } else {
        log_mutation(recovery::LogKind::kPut, &rep->first, rep->first.id);
        records_.keep(std::move(rep->first), transport_.router().stack().now());
      }
      break;
    }
    default:
      break;  // not a server-side message
  }
}

}  // namespace ndsm::discovery
