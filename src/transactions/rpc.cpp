#include "transactions/rpc.hpp"

#include "serialize/codec.hpp"

namespace ndsm::transactions {

RpcEndpoint::RpcEndpoint(transport::ReliableTransport& transport) : transport_(transport) {
  transport_.set_receiver(transport::ports::kRpc,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

RpcEndpoint::~RpcEndpoint() {
  transport_.clear_receiver(transport::ports::kRpc);
  auto& stack = transport_.router().stack();
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [id, pending] : pending_) {
    if (pending.timer.valid()) stack.cancel(pending.timer);
  }
}

void RpcEndpoint::register_method(const std::string& name, Handler handler) {
  methods_[name] = std::move(handler);
}

void RpcEndpoint::call(NodeId server, const std::string& method, Bytes args,
                       ResponseCallback callback, Time timeout) {
  auto& stack = transport_.router().stack();
  const std::uint64_t request_id = next_request_++;
  stats_.calls_sent++;

  Pending pending;
  pending.callback = std::move(callback);
  pending.timer = stack.schedule_after(timeout, [this, request_id] {
    stats_.timeouts++;
    finish(request_id, Status{ErrorCode::kTimeout, "rpc timeout"});
  });
  pending_.emplace(request_id, std::move(pending));

  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kRequest));
  w.varint(request_id);
  w.str(method);
  w.bytes(args);
  transport_.send(server, transport::ports::kRpc, std::move(w).take());
}

void RpcEndpoint::finish(std::uint64_t request_id, Result<Bytes> result) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  if (it->second.timer.valid()) transport_.router().stack().cancel(it->second.timer);
  auto cb = std::move(it->second.callback);
  pending_.erase(it);
  cb(std::move(result));
}

void RpcEndpoint::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  if (static_cast<Kind>(*kind) == Kind::kRequest) {
    const auto request_id = r.varint();
    const auto method = r.str();
    const auto args = r.bytes();
    if (!request_id || !method || !args) return;

    serialize::Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kResponse));
    w.varint(*request_id);
    const auto handler = methods_.find(*method);
    if (handler == methods_.end()) {
      stats_.unknown_method++;
      w.boolean(false);
      w.u8(static_cast<std::uint8_t>(ErrorCode::kNotFound));
      w.str("no such method: " + *method);
    } else {
      stats_.calls_served++;
      Result<Bytes> result = handler->second(src, *args);
      if (result.is_ok()) {
        w.boolean(true);
        w.bytes(result.value());
      } else {
        w.boolean(false);
        w.u8(static_cast<std::uint8_t>(result.code()));
        w.str(result.status().message());
      }
    }
    transport_.send(src, transport::ports::kRpc, std::move(w).take());
    return;
  }
  if (static_cast<Kind>(*kind) == Kind::kResponse) {
    const auto request_id = r.varint();
    const auto ok = r.boolean();
    if (!request_id || !ok) return;
    stats_.responses_received++;
    if (*ok) {
      auto payload = r.bytes();
      if (!payload) return;
      finish(*request_id, std::move(*payload));
    } else {
      const auto code = r.u8();
      const auto message = r.str();
      if (!code || !message) return;
      finish(*request_id, Status{static_cast<ErrorCode>(*code), *message});
    }
  }
}

}  // namespace ndsm::transactions
