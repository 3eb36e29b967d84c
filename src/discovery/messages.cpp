#include "discovery/messages.hpp"

namespace ndsm::discovery {

namespace {
// `body_hint` is the expected encoded size of everything after the kind
// byte, so each message encode allocates at most once.
serialize::Writer header(MsgKind kind, std::size_t body_hint = 0) {
  serialize::Writer w;
  w.reserve(1 + body_hint);
  w.u8(static_cast<std::uint8_t>(kind));
  return w;
}
}  // namespace

std::optional<MsgKind> peek_kind(const Bytes& frame) {
  if (frame.empty()) return std::nullopt;
  const auto kind = frame[0];
  if (kind < 1 || kind > static_cast<std::uint8_t>(MsgKind::kAdvertise)) return std::nullopt;
  return static_cast<MsgKind>(kind);
}

Bytes encode_register(const ServiceRecord& record) {
  auto w = header(MsgKind::kRegister);
  record.encode(w);
  return std::move(w).take();
}

std::optional<ServiceRecord> decode_register(serialize::Reader& r) {
  return ServiceRecord::decode(r);
}

Bytes encode_register_ack(ServiceId id, bool accepted) {
  auto w = header(MsgKind::kRegisterAck, 9);  // u64 id + bool
  w.id(id);
  w.boolean(accepted);
  return std::move(w).take();
}

std::optional<std::pair<ServiceId, bool>> decode_register_ack(serialize::Reader& r) {
  const auto id = r.id<ServiceId>();
  const auto ok = r.boolean();
  if (!id || !ok) return std::nullopt;
  return std::make_pair(*id, *ok);
}

Bytes encode_unregister(ServiceId id) {
  auto w = header(MsgKind::kUnregister, 8);  // u64 id
  w.id(id);
  return std::move(w).take();
}

std::optional<ServiceId> decode_unregister(serialize::Reader& r) { return r.id<ServiceId>(); }

Bytes encode_query(const QueryMessage& query) {
  auto w = header(MsgKind::kQuery);
  w.varint(query.query_id);
  w.id(query.reply_to);
  w.u16(query.reply_port);
  query.consumer.encode(w);
  w.u32(query.max_results);
  return std::move(w).take();
}

std::optional<QueryMessage> decode_query(serialize::Reader& r) {
  QueryMessage q;
  const auto id = r.varint();
  const auto reply_to = r.id<NodeId>();
  const auto reply_port = r.u16();
  if (!id || !reply_to || !reply_port) return std::nullopt;
  auto consumer = qos::ConsumerQos::decode(r);
  const auto max_results = r.u32();
  if (!consumer || !max_results) return std::nullopt;
  q.query_id = *id;
  q.reply_to = *reply_to;
  q.reply_port = *reply_port;
  q.consumer = std::move(*consumer);
  q.max_results = *max_results;
  return q;
}

Bytes encode_query_reply(const QueryReply& reply) {
  auto w = header(MsgKind::kQueryReply);
  w.varint(reply.query_id);
  encode_records(w, reply.records);
  return std::move(w).take();
}

std::optional<QueryReply> decode_query_reply(serialize::Reader& r) {
  QueryReply reply;
  const auto id = r.varint();
  if (!id) return std::nullopt;
  auto records = decode_records(r);
  if (!records) return std::nullopt;
  reply.query_id = *id;
  reply.records = std::move(*records);
  return reply;
}

Bytes encode_replicate(const ServiceRecord& record, bool removal) {
  auto w = header(MsgKind::kReplicate);
  w.boolean(removal);
  record.encode(w);
  return std::move(w).take();
}

std::optional<std::pair<ServiceRecord, bool>> decode_replicate(serialize::Reader& r) {
  const auto removal = r.boolean();
  if (!removal) return std::nullopt;
  auto record = ServiceRecord::decode(r);
  if (!record) return std::nullopt;
  return std::make_pair(std::move(*record), *removal);
}

Bytes encode_advertise(const std::vector<ServiceRecord>& records) {
  auto w = header(MsgKind::kAdvertise);
  encode_records(w, records);
  return std::move(w).take();
}

std::optional<std::vector<ServiceRecord>> decode_advertise(serialize::Reader& r) {
  return decode_records(r);
}

}  // namespace ndsm::discovery
