#include "scheduling/handoff.hpp"

#include "serialize/codec.hpp"

namespace ndsm::scheduling {

HandoffManager::HandoffManager(transport::ReliableTransport& transport)
    : transport_(transport),
      transfers_(transport.router().stack(), [this](std::uint64_t, CompletionHandler done) {
        finish(std::move(done), Status{ErrorCode::kTimeout, "handoff not acknowledged"});
      }) {
  transport_.set_receiver(transport::ports::kHandoff,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

HandoffManager::~HandoffManager() { transport_.clear_receiver(transport::ports::kHandoff); }

void HandoffManager::register_session_type(const std::string& session_type,
                                           ResumeHandler handler) {
  handlers_[session_type] = std::move(handler);
}

void HandoffManager::handoff(const std::string& session_type, Bytes state, NodeId target,
                             CompletionHandler done, Time timeout) {
  const std::uint64_t transfer_id = transfers_.open(target, std::move(done), timeout);
  stats_.initiated++;

  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kTransfer));
  w.varint(transfer_id);
  w.str(session_type);
  w.bytes(state);
  transport_.send(target, transport::ports::kHandoff, std::move(w).take());
}

void HandoffManager::finish(CompletionHandler done, Status status) {
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
      if (auto done = transfers_.take(*transfer_id, src)) finish(std::move(*done), Status::ok());
      break;
    }
    case Kind::kReject: {
      const auto transfer_id = r.varint();
      auto reason = r.str();
      if (!transfer_id) return;
      if (auto done = transfers_.take(*transfer_id, src)) {
        finish(std::move(*done), Status{ErrorCode::kRejected, reason ? *reason : "rejected"});
      }
      break;
    }
  }
}

}  // namespace ndsm::scheduling
