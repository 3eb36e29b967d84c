#include "transactions/events.hpp"

#include <algorithm>

namespace ndsm::transactions {

EventChannel::EventChannel(transport::ReliableTransport& transport) : transport_(transport) {
  transport_.set_receiver(transport::ports::kEvents,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

EventChannel::~EventChannel() { transport_.clear_receiver(transport::ports::kEvents); }

SubscriptionId EventChannel::subscribe_local(const std::string& type, EventHandler handler) {
  const std::uint64_t token = next_token_++;
  subs_[token] = LocalSub{type, std::move(handler), false, NodeId::invalid()};
  return SubscriptionId{token};
}

void EventChannel::emit(const std::string& type, serialize::Value payload) {
  emitted_++;
  Event event;
  event.type = type;
  event.payload = std::move(payload);
  event.source = transport_.self();
  event.emitted = transport_.router().stack().now();

  // Local, synchronous delivery. Copy tokens first: handlers may
  // (un)subscribe during dispatch.
  std::vector<std::uint64_t> tokens;
  tokens.reserve(subs_.size());
  for (const auto& [token, sub] : subs_) {
    if (!sub.remote_origin && (sub.type.empty() || sub.type == type)) tokens.push_back(token);
  }
  for (const auto token : tokens) {
    const auto it = subs_.find(token);
    if (it != subs_.end()) it->second.handler(event);
  }

  // Remote push.
  for (const auto& listener : listeners_) {
    if (!listener.type.empty() && listener.type != type) continue;
    serialize::Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kEvent));
    w.varint(listener.token);
    w.str(type);
    event.payload.encode(w);
    w.svarint(event.emitted);
    transport_.send(listener.consumer, transport::ports::kEvents, std::move(w).take());
  }
}

SubscriptionId EventChannel::attach(NodeId producer, const std::string& type,
                                    EventHandler handler) {
  const std::uint64_t token = next_token_++;
  subs_[token] = LocalSub{type, std::move(handler), true, producer};
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kAttach));
  w.varint(token);
  w.str(type);
  transport_.send(producer, transport::ports::kEvents, std::move(w).take());
  return SubscriptionId{token};
}

void EventChannel::detach(SubscriptionId id) {
  const auto it = subs_.find(id.value());
  if (it == subs_.end()) return;
  const NodeId producer = it->second.producer;
  subs_.erase(it);
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kDetach));
  w.varint(id.value());
  transport_.send(producer, transport::ports::kEvents, std::move(w).take());
}

void EventChannel::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kAttach: {
      const auto token = r.varint();
      const auto type = r.str();
      if (!token || !type) return;
      listeners_.push_back(RemoteListener{src, *type, *token});
      break;
    }
    case Kind::kDetach: {
      const auto token = r.varint();
      if (!token) return;
      listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                      [&](const RemoteListener& l) {
                                        return l.consumer == src && l.token == *token;
                                      }),
                       listeners_.end());
      break;
    }
    case Kind::kEvent: {
      const auto token = r.varint();
      const auto type = r.str();
      auto payload = serialize::Value::decode(r);
      const auto emitted = r.svarint();
      if (!token || !type || !payload || !emitted) return;
      const auto it = subs_.find(*token);
      if (it == subs_.end()) return;  // detached while in flight
      received_++;
      Event event;
      event.type = *type;
      event.payload = std::move(*payload);
      event.source = src;
      event.emitted = *emitted;
      it->second.handler(event);
      break;
    }
  }
}

}  // namespace ndsm::transactions
