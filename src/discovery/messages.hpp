#pragma once
// Discovery wire protocol, shared by every discovery mode. Messages carry
// no trace context: a handler reads the one its delivery runs under
// (obs::active_trace()), which the routing header of the frame that
// carried the message supplies.

#include <optional>

#include "discovery/record.hpp"
#include "qos/spec.hpp"

namespace ndsm::discovery {

enum class MsgKind : std::uint8_t {
  kRegister = 1,    // client -> directory: one record
  kRegisterAck = 2, // directory -> client: status for a register
  kUnregister = 3,  // client -> directory: service id
  kQuery = 4,       // client -> directory, or flooded: ConsumerQos
  kQueryReply = 5,  // responder -> client: matching records
  kReplicate = 6,   // directory -> mirror: full record (register/unregister)
  kAdvertise = 7,   // distributed mode: proactive record announcement
};

struct QueryMessage {
  std::uint64_t query_id = 0;
  NodeId reply_to;
  std::uint16_t reply_port = 0;
  qos::ConsumerQos consumer;
  std::uint32_t max_results = 8;
};

struct QueryReply {
  std::uint64_t query_id = 0;
  std::vector<ServiceRecord> records;
};

[[nodiscard]] Bytes encode_register(const ServiceRecord& record);
[[nodiscard]] Bytes encode_register_ack(ServiceId id, bool accepted);
[[nodiscard]] Bytes encode_unregister(ServiceId id);
[[nodiscard]] Bytes encode_query(const QueryMessage& query);
[[nodiscard]] Bytes encode_query_reply(const QueryReply& reply);
[[nodiscard]] Bytes encode_replicate(const ServiceRecord& record, bool removal);
[[nodiscard]] Bytes encode_advertise(const std::vector<ServiceRecord>& records);

// Peeks the kind; the per-kind decoders consume the rest.
[[nodiscard]] std::optional<MsgKind> peek_kind(const Bytes& frame);

std::optional<ServiceRecord> decode_register(serialize::Reader& r);
std::optional<std::pair<ServiceId, bool>> decode_register_ack(serialize::Reader& r);
std::optional<ServiceId> decode_unregister(serialize::Reader& r);
std::optional<QueryMessage> decode_query(serialize::Reader& r);
std::optional<QueryReply> decode_query_reply(serialize::Reader& r);
std::optional<std::pair<ServiceRecord, bool>> decode_replicate(serialize::Reader& r);
std::optional<std::vector<ServiceRecord>> decode_advertise(serialize::Reader& r);

}  // namespace ndsm::discovery
