#include "transactions/tuple_space.hpp"

namespace ndsm::transactions {

namespace {

enum class Kind : std::uint8_t {
  kOut = 1,
  kOutAck = 2,
  kRd = 3,
  kIn = 4,
  kReply = 5,
  kCancel = 6,  // client timeout: drop the parked request
};

}  // namespace

TupleSpaceServer::TupleSpaceServer(transport::ReliableTransport& transport)
    : transport_(transport) {
  transport_.set_receiver(transport::ports::kTupleSpace,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

TupleSpaceServer::~TupleSpaceServer() {
  transport_.clear_receiver(transport::ports::kTupleSpace);
}

void TupleSpaceServer::reply(NodeId client, std::uint64_t request_id, bool found,
                             const Tuple& tuple) {
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kReply));
  w.varint(request_id);
  w.boolean(found);
  if (found) w.bytes(serialize::encode_tuple(tuple));
  transport_.send(client, transport::ports::kTupleSpace, std::move(w).take());
}

void TupleSpaceServer::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kOut: {
      const auto request_id = r.varint();
      const auto body = r.bytes();
      if (!request_id || !body) return;
      auto tuple = serialize::decode_tuple(*body);
      if (!tuple.is_ok()) return;
      stats_.outs++;
      // Wake the oldest parked request that matches; rd-parked requests all
      // see the tuple, the first in-parked request consumes it.
      bool consumed = false;
      for (auto it = parked_.begin(); it != parked_.end();) {
        if (consumed || !serialize::tuple_matches(it->tmpl, tuple.value())) {
          ++it;
          continue;
        }
        stats_.woken++;
        reply(it->client, it->request_id, true, tuple.value());
        if (it->take) {
          stats_.takes++;
          consumed = true;
        } else {
          stats_.reads++;
        }
        it = parked_.erase(it);
      }
      if (!consumed) tuples_.push_back(std::move(tuple).take());
      // Ack the out.
      serialize::Writer w;
      w.u8(static_cast<std::uint8_t>(Kind::kOutAck));
      w.varint(*request_id);
      transport_.send(src, transport::ports::kTupleSpace, std::move(w).take());
      break;
    }
    case Kind::kRd:
    case Kind::kIn: {
      const bool take = static_cast<Kind>(*kind) == Kind::kIn;
      const auto request_id = r.varint();
      const auto blocking = r.boolean();
      const auto body = r.bytes();
      if (!request_id || !blocking || !body) return;
      auto tmpl = serialize::decode_tuple(*body);
      if (!tmpl.is_ok()) return;
      for (auto it = tuples_.begin(); it != tuples_.end(); ++it) {
        if (!serialize::tuple_matches(tmpl.value(), *it)) continue;
        reply(src, *request_id, true, *it);
        if (take) {
          stats_.takes++;
          tuples_.erase(it);
        } else {
          stats_.reads++;
        }
        return;
      }
      if (*blocking) {
        stats_.parked++;
        parked_.push_back(ParkedRequest{src, *request_id, std::move(tmpl).take(), take});
      } else {
        stats_.misses++;
        reply(src, *request_id, false, {});
      }
      break;
    }
    case Kind::kCancel: {
      const auto request_id = r.varint();
      if (!request_id) return;
      parked_.remove_if([&](const ParkedRequest& p) {
        return p.client == src && p.request_id == *request_id;
      });
      break;
    }
    default:
      break;
  }
}

TupleSpaceClient::TupleSpaceClient(transport::ReliableTransport& transport, NodeId server)
    : transport_(transport),
      server_(server),
      requests_(transport.router().stack(), [this](std::uint64_t request_id, Waiting waiting) {
        if (waiting.blocking) {
          // Tell the server to drop the parked request.
          serialize::Writer w;
          w.u8(static_cast<std::uint8_t>(Kind::kCancel));
          w.varint(request_id);
          transport_.send(server_, transport::ports::kTupleSpace, std::move(w).take());
        }
        waiting.callback(false, {});
      }) {
  transport_.set_receiver(transport::ports::kTupleSpace,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

TupleSpaceClient::~TupleSpaceClient() {
  transport_.clear_receiver(transport::ports::kTupleSpace);
}

void TupleSpaceClient::out(const Tuple& tuple, std::function<void(Status)> done) {
  // An out without `done` awaits no acknowledgement but still takes an id.
  const std::uint64_t request_id =
      !done ? requests_.skip()
            : requests_.open(server_,
                             {[done = std::move(done)](bool acked, Tuple) {
                               done(acked ? Status::ok()
                                          : Status{ErrorCode::kTimeout, "out not acknowledged"});
                             }},
                             duration::seconds(5));
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kOut));
  w.varint(request_id);
  w.bytes(serialize::encode_tuple(tuple));
  transport_.send(server_, transport::ports::kTupleSpace, std::move(w).take());
}

void TupleSpaceClient::rd(const Tuple& tmpl, TupleCallback callback, bool blocking,
                          Time timeout) {
  request(tmpl, /*take=*/false, blocking, timeout, std::move(callback));
}

void TupleSpaceClient::in(const Tuple& tmpl, TupleCallback callback, bool blocking,
                          Time timeout) {
  request(tmpl, /*take=*/true, blocking, timeout, std::move(callback));
}

void TupleSpaceClient::request(const Tuple& tmpl, bool take, bool blocking, Time timeout,
                               TupleCallback callback) {
  const std::uint64_t request_id =
      requests_.open(server_, Waiting{std::move(callback), blocking}, timeout);
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(take ? Kind::kIn : Kind::kRd));
  w.varint(request_id);
  w.boolean(blocking);
  w.bytes(serialize::encode_tuple(tmpl));
  transport_.send(server_, transport::ports::kTupleSpace, std::move(w).take());
}

void TupleSpaceClient::finish(std::uint64_t request_id, NodeId src, bool found, Tuple tuple) {
  if (auto waiting = requests_.take(request_id, src)) waiting->callback(found, std::move(tuple));
}

void TupleSpaceClient::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  if (static_cast<Kind>(*kind) == Kind::kOutAck) {
    const auto request_id = r.varint();
    if (!request_id) return;
    finish(*request_id, src, true, {});
    return;
  }
  if (static_cast<Kind>(*kind) != Kind::kReply) return;
  const auto request_id = r.varint();
  const auto found = r.boolean();
  if (!request_id || !found) return;
  if (!*found) {
    finish(*request_id, src, false, {});
    return;
  }
  const auto body = r.bytes();
  if (!body) return;
  auto tuple = serialize::decode_tuple(*body);
  if (!tuple.is_ok()) return;
  finish(*request_id, src, true, std::move(tuple).take());
}

}  // namespace ndsm::transactions
