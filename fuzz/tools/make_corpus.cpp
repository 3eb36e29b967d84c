// Seed-corpus generator: writes one subdirectory per fuzz target under
// argv[1] (default: ./corpus), each seeded with well-formed encodings
// produced by the repo's own encoders plus a few near-valid corruptions.
// Run once and commit the output — the replay driver and libFuzzer both
// start from these files, so every decoder begins at real wire shapes
// instead of random noise. Regenerate after a wire-format change.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "discovery/messages.hpp"
#include "net/udp_wire.hpp"
#include "obs/trace_context.hpp"
#include "recovery/wal.hpp"
#include "routing/router.hpp"
#include "serialize/value.hpp"

namespace fs = std::filesystem;
using namespace ndsm;

namespace {

fs::path g_root;

void emit(const std::string& target, const std::string& name, const Bytes& bytes) {
  const fs::path dir = g_root / target;
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes str_bytes(const char* s) { return Bytes(s, s + std::strlen(s)); }

serialize::Value sample_value() {
  serialize::ValueMap map;
  map.emplace("name", serialize::Value{std::string{"thermometer"}});
  map.emplace("reading", serialize::Value{21.5});
  serialize::ValueList list;
  list.push_back(serialize::Value{std::int64_t{42}});
  list.push_back(serialize::Value{true});
  list.push_back(serialize::Value{std::move(map)});
  list.push_back(serialize::Value::wildcard());
  return serialize::Value{std::move(list)};
}

discovery::ServiceRecord sample_record() {
  discovery::ServiceRecord rec;
  rec.id = ServiceId{11};
  rec.provider = NodeId{3};
  rec.qos.service_type = "temperature";
  rec.qos.reliability = 0.95;
  rec.qos.availability = 0.9;
  rec.qos.power_w = 0.25;
  rec.registered = 1000;
  rec.expires = 61000;
  return rec;
}

void value_decode() {
  emit("value_decode", "nil.bin", serialize::Value{}.to_bytes());
  emit("value_decode", "int.bin", serialize::Value{std::int64_t{-123456}}.to_bytes());
  emit("value_decode", "float.bin", serialize::Value{3.14159}.to_bytes());
  emit("value_decode", "string.bin",
       serialize::Value{std::string{"hello wire"}}.to_bytes());
  emit("value_decode", "bytes.bin", serialize::Value{Bytes(32, 0x5a)}.to_bytes());
  emit("value_decode", "nested.bin", sample_value().to_bytes());
  emit("value_decode", "tuple.bin",
       serialize::encode_tuple({serialize::Value{std::string{"temp"}},
                                serialize::Value{std::int64_t{7}}, sample_value()}));
  // Deeply nested list: each level is (kList tag, count 1).
  Bytes deep;
  for (int i = 0; i < 40; ++i) {
    deep.push_back(8);  // Value::Type::kList
    deep.push_back(1);
  }
  deep.push_back(0);  // innermost: kNil
  emit("value_decode", "deep_list.bin", deep);
}

void transport_frame() {
  // Fragment frame exactly as ReliableTransport::transmit_fragments
  // writes it (kind, epoch, msg_id, port, index, count, data). Transport
  // frames carry no trace context; the routing header holds the frame's.
  obs::TraceContext ctx;
  ctx.trace_id = 0x1111;
  ctx.span_id = 0x2222;
  ctx.hops = 1;
  {
    serialize::Writer w;
    w.u8(1);  // kFragment
    w.varint(7);
    w.varint(1);
    w.u16(10);
    w.varint(0);
    w.varint(2);
    w.bytes(Bytes(96, 0xab));
    emit("transport_frame", "fragment.bin", std::move(w).take());
  }
  {
    serialize::Writer w;  // ack for msg 1 fragment 0, sender epoch 7
    w.u8(2);              // kAck
    w.varint(7);
    w.varint(1);
    w.varint(0);
    emit("transport_frame", "ack.bin", std::move(w).take());
  }
  {
    // Reply fragment carrying the ack of msg 1 fragment 0 (sender epoch 7)
    // ahead of an ordinary one-fragment message.
    serialize::Writer w;
    w.u8(3);  // kAckedFragment
    w.varint(7);
    w.varint(1);
    w.varint(0);
    w.varint(3);
    w.varint(4);
    w.u16(10);
    w.varint(0);
    w.varint(1);
    w.bytes(str_bytes("reply"));
    emit("transport_frame", "acked_fragment.bin", std::move(w).take());
  }
  {
    serialize::Writer w;  // carried ack truncated after its msg id
    w.u8(3);
    w.varint(7);
    w.varint(1);
    emit("transport_frame", "acked_fragment_truncated_ack.bin", std::move(w).take());
  }
  {
    // A well-formed ack of msg 1 fragment 0 on a fragment claiming 2^60
    // total: the whole frame is dropped and the ack not applied.
    serialize::Writer w;
    w.u8(3);
    w.varint(7);
    w.varint(1);
    w.varint(0);
    w.varint(3);
    w.varint(5);
    w.u16(10);
    w.varint(0);
    w.varint(1ULL << 60);
    w.bytes(str_bytes("overflow"));
    emit("transport_frame", "acked_hostile_count.bin", std::move(w).take());
  }
  {
    serialize::Writer w;  // hostile count: one fragment claiming 2^60 total
    w.u8(1);
    w.varint(7);
    w.varint(2);
    w.u16(10);
    w.varint(0);
    w.varint(1ULL << 60);
    w.bytes(str_bytes("overflow"));
    emit("transport_frame", "hostile_count.bin", std::move(w).take());
  }
  {
    // Fragment behind a full routing header, as it rides the real wire.
    serialize::Writer w;
    w.u8(1);
    w.varint(7);
    w.varint(3);
    w.u16(10);
    w.varint(0);
    w.varint(1);
    w.bytes(str_bytes("routed payload"));
    routing::RoutingHeader h;
    h.kind = routing::RoutingKind::kData;
    h.origin = NodeId{2};
    h.dst = NodeId{1};
    h.seq = 9;
    h.ttl = 4;
    h.upper = net::Proto::kTransport;
    h.trace = ctx;
    emit("transport_frame", "routed_fragment.bin",
         routing::encode_routing(h, std::move(w).take()));
  }
  {
    routing::RoutingHeader h;  // flood header with a discovery payload
    h.kind = routing::RoutingKind::kFlood;
    h.origin = NodeId{5};
    h.dst = net::kBroadcast;
    h.seq = 3;
    h.ttl = 8;
    h.upper = net::Proto::kDiscovery;
    emit("transport_frame", "flood.bin", routing::encode_routing(h, str_bytes("q")));
  }
  {
    // Traced flood for another node: relayed, with the hop count at its cap.
    routing::RoutingHeader h;
    h.kind = routing::RoutingKind::kFlood;
    h.origin = NodeId{5};
    h.dst = NodeId{3};
    h.seq = 4;
    h.ttl = 6;
    h.upper = net::Proto::kTransport;
    h.trace = ctx;
    h.trace.hops = 255;
    emit("transport_frame", "relayed_flood.bin",
         routing::encode_routing(h, str_bytes("relay me")));
  }
  {
    // Direct data frame for another node: FloodingRouter neither delivers
    // nor relays it.
    routing::RoutingHeader h;
    h.kind = routing::RoutingKind::kData;
    h.origin = NodeId{5};
    h.dst = NodeId{3};
    h.seq = 2;
    h.ttl = 32;
    h.upper = net::Proto::kTransport;
    h.trace = ctx;
    emit("transport_frame", "data_for_other.bin",
         routing::encode_routing(h, str_bytes("not for me")));
  }
}

void discovery_msg() {
  const auto rec = sample_record();
  emit("discovery_msg", "register.bin", discovery::encode_register(rec));
  emit("discovery_msg", "register_ack.bin",
       discovery::encode_register_ack(ServiceId{11}, true));
  emit("discovery_msg", "unregister.bin", discovery::encode_unregister(ServiceId{11}));
  discovery::QueryMessage q;
  q.query_id = 77;
  q.reply_to = NodeId{4};
  q.reply_port = 20;
  q.consumer.service_type = "temperature";
  q.consumer.min_reliability = 0.5;
  emit("discovery_msg", "query.bin", discovery::encode_query(q));
  discovery::QueryReply reply;
  reply.query_id = 77;
  reply.records = {rec, rec};
  emit("discovery_msg", "query_reply.bin", discovery::encode_query_reply(reply));
  emit("discovery_msg", "replicate.bin", discovery::encode_replicate(rec, false));
  emit("discovery_msg", "advertise.bin", discovery::encode_advertise({rec}));
  // Body-only variant: the per-kind decoders start after the kind byte.
  Bytes query_wire = discovery::encode_query(q);
  emit("discovery_msg", "query_body.bin",
       Bytes(query_wire.begin() + 1, query_wire.end()));
}

void trace_decode() {
  obs::TraceContext ctx;
  ctx.trace_id = 0xdeadbeef;
  ctx.span_id = 0xfeedface;
  ctx.hops = 3;
  serialize::Writer w;
  obs::encode_trace(w, ctx);
  emit("trace_decode", "valid.bin", std::move(w).take());
  serialize::Writer w0;
  obs::encode_trace(w0, obs::TraceContext{});
  emit("trace_decode", "invalid.bin", std::move(w0).take());
  emit("trace_decode", "flags_only.bin", Bytes{1});
}

void udp_wire() {
  emit("udp_wire", "unicast.bin",
       net::encode_wire_datagram({net::Proto::kTransport, NodeId{1}, NodeId{2}},
                                 str_bytes("payload")));
  emit("udp_wire", "broadcast.bin",
       net::encode_wire_datagram({net::Proto::kRouting, NodeId{3}, net::kBroadcast},
                                 str_bytes("beacon")));
  Bytes bad = net::encode_wire_datagram({net::Proto::kApp, NodeId{1}, NodeId{2}}, {});
  bad[0] ^= 0xff;
  emit("udp_wire", "bad_magic.bin", bad);
  Bytes vers = net::encode_wire_datagram({net::Proto::kApp, NodeId{1}, NodeId{2}}, {});
  vers[4] = 99;
  emit("udp_wire", "bad_version.bin", vers);
}

void wal_replay() {
  // Storage image in the target's framing: u16-le length, then the bytes.
  const auto frame = [](const std::vector<Bytes>& records) {
    Bytes image;
    for (const auto& rec : records) {
      image.push_back(static_cast<std::uint8_t>(rec.size() & 0xff));
      image.push_back(static_cast<std::uint8_t>((rec.size() >> 8) & 0xff));
      image.insert(image.end(), rec.begin(), rec.end());
    }
    return image;
  };
  recovery::StableStorage storage;
  recovery::WriteAheadLog wal{storage};
  wal.append(recovery::LogKind::kBegin, 1);
  wal.append(recovery::LogKind::kPut, 1, "sensor.3", sample_value());
  wal.append(recovery::LogKind::kCommit, 1);
  std::vector<Bytes> records;
  for (std::size_t i = 0; i < storage.size(); ++i) records.push_back(storage.read(i));
  emit("wal_replay", "clean_log.bin", frame(records));
  // Torn tail: last record truncated mid-append.
  auto torn = records;
  torn.back().resize(torn.back().size() / 2);
  emit("wal_replay", "torn_log.bin", frame(torn));
  // Single raw record for the whole-buffer decode path.
  emit("wal_replay", "one_record.bin", records[1]);
  // Redo shapes: two transactions interleaved with each other and with a
  // singleton write on one key, committed in reverse order, then id 1
  // reused by a fresh Begin and left undecided.
  recovery::StableStorage mixed;
  recovery::WriteAheadLog mixed_wal{mixed};
  mixed_wal.append(recovery::LogKind::kBegin, 1);
  mixed_wal.append(recovery::LogKind::kBegin, 2);
  mixed_wal.append(recovery::LogKind::kPut, 1, "k", serialize::Value{std::int64_t{1}});
  mixed_wal.append(recovery::LogKind::kPut, 2, "k", serialize::Value{std::int64_t{2}});
  mixed_wal.append(recovery::LogKind::kPut, 0, "k", serialize::Value{std::int64_t{0}});
  mixed_wal.append(recovery::LogKind::kErase, 2, "k");
  mixed_wal.append(recovery::LogKind::kCommit, 2);
  mixed_wal.append(recovery::LogKind::kCommit, 1);
  mixed_wal.append(recovery::LogKind::kBegin, 1);
  mixed_wal.append(recovery::LogKind::kPut, 1, "k", serialize::Value{std::int64_t{3}});
  std::vector<Bytes> mixed_records;
  for (std::size_t i = 0; i < mixed.size(); ++i) mixed_records.push_back(mixed.read(i));
  emit("wal_replay", "interleaved_tx.bin", frame(mixed_records));
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? fs::path(argv[1]) : fs::path("corpus");
  value_decode();
  transport_frame();
  discovery_msg();
  trace_decode();
  udp_wire();
  wal_replay();
  std::printf("corpus written under %s\n", g_root.string().c_str());
  return 0;
}
