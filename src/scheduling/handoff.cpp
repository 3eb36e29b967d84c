#include "scheduling/handoff.hpp"

#include "serialize/codec.hpp"

namespace ndsm::scheduling {

HandoffManager::HandoffManager(transport::ReliableTransport& transport)
    : transport_(transport) {
  transport_.set_receiver(transport::ports::kHandoff,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

HandoffManager::~HandoffManager() {
  transport_.clear_receiver(transport::ports::kHandoff);
  auto& stack = transport_.router().stack();
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [id, pending] : pending_) {
    if (pending.timer.valid()) stack.cancel(pending.timer);
  }
}

void HandoffManager::register_session_type(const std::string& session_type,
                                           ResumeHandler handler) {
  handlers_[session_type] = std::move(handler);
}

void HandoffManager::handoff(const std::string& session_type, Bytes state, NodeId target,
                             CompletionHandler done, Time timeout) {
  auto& stack = transport_.router().stack();
  const std::uint64_t transfer_id = next_transfer_++;
  stats_.initiated++;

  Pending pending;
  pending.done = std::move(done);
  pending.timer = stack.schedule_after(timeout, [this, transfer_id] {
    finish(transfer_id, Status{ErrorCode::kTimeout, "handoff not acknowledged"});
  });
  pending_.emplace(transfer_id, std::move(pending));

  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kTransfer));
  w.varint(transfer_id);
  w.str(session_type);
  w.bytes(state);
  transport_.send(target, transport::ports::kHandoff, std::move(w).take());
}

void HandoffManager::finish(std::uint64_t transfer_id, Status status) {
  const auto it = pending_.find(transfer_id);
  if (it == pending_.end()) return;
  if (it->second.timer.valid()) transport_.router().stack().cancel(it->second.timer);
  auto done = std::move(it->second.done);
  pending_.erase(it);
  if (status.is_ok()) {
    stats_.completed++;
  } else {
    stats_.failed++;
  }
  if (done) done(status);
}

void HandoffManager::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kTransfer: {
      const auto transfer_id = r.varint();
      const auto session_type = r.str();
      const auto state = r.bytes();
      if (!transfer_id || !session_type || !state) return;
      serialize::Writer reply;
      const auto handler = handlers_.find(*session_type);
      if (handler == handlers_.end()) {
        stats_.rejected++;
        reply.u8(static_cast<std::uint8_t>(Kind::kReject));
        reply.varint(*transfer_id);
        reply.str("no handler for session type '" + *session_type + "'");
      } else {
        const Status accepted = handler->second(src, *state);
        if (accepted.is_ok()) {
          stats_.received++;
          reply.u8(static_cast<std::uint8_t>(Kind::kAccept));
          reply.varint(*transfer_id);
        } else {
          stats_.rejected++;
          reply.u8(static_cast<std::uint8_t>(Kind::kReject));
          reply.varint(*transfer_id);
          reply.str(accepted.message());
        }
      }
      transport_.send(src, transport::ports::kHandoff, std::move(reply).take());
      break;
    }
    case Kind::kAccept: {
      const auto transfer_id = r.varint();
      if (!transfer_id) return;
      finish(*transfer_id, Status::ok());
      break;
    }
    case Kind::kReject: {
      const auto transfer_id = r.varint();
      auto reason = r.str();
      if (!transfer_id) return;
      finish(*transfer_id,
             Status{ErrorCode::kRejected, reason ? *reason : "rejected"});
      break;
    }
  }
}

}  // namespace ndsm::scheduling
