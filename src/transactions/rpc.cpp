#include "transactions/rpc.hpp"

#include "serialize/codec.hpp"

namespace ndsm::transactions {

RpcEndpoint::RpcEndpoint(transport::ReliableTransport& transport)
    : transport_(transport),
      calls_(transport.router().stack(), [this](std::uint64_t, ResponseCallback callback) {
        stats_.timeouts++;
        callback(Status{ErrorCode::kTimeout, "rpc timeout"});
      }) {
  transport_.set_receiver(transport::ports::kRpc,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

RpcEndpoint::~RpcEndpoint() { transport_.clear_receiver(transport::ports::kRpc); }

void RpcEndpoint::register_method(const std::string& name, Handler handler) {
  methods_[name] = std::move(handler);
}

void RpcEndpoint::call(NodeId server, const std::string& method, Bytes args,
                       ResponseCallback callback, Time timeout) {
  const std::uint64_t request_id = calls_.open(server, std::move(callback), timeout);
  stats_.calls_sent++;

  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kRequest));
  w.varint(request_id);
  w.str(method);
  w.bytes(args);
  transport_.send(server, transport::ports::kRpc, std::move(w).take());
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
      if (auto callback = calls_.take(*request_id, src)) (*callback)(std::move(*payload));
    } else {
      const auto code = r.u8();
      const auto message = r.str();
      if (!code || !message) return;
      if (auto callback = calls_.take(*request_id, src)) {
        (*callback)(Status{static_cast<ErrorCode>(*code), *message});
      }
    }
  }
}

}  // namespace ndsm::transactions
