#pragma once
// Application-session handoff (§3.7 "scheduling and application hand-off";
// the paper cites Phan et al., "Handoff of Application Sessions Across
// Time and Space" [96]). A session is opaque serialized state owned by one
// node at a time; the HandoffManager transfers ownership reliably:
//
//   1. the source freezes the session (application callback produces state),
//   2. the state ships over the reliable transport,
//   3. the target's registered resume handler reconstructs the session and
//      acknowledges,
//   4. only on acknowledgement does the source complete (state is never
//      owned by zero or two nodes as observed by the completion handlers).

#include <functional>
#include <string>
#include <unordered_map>

#include "transport/reliable.hpp"

namespace ndsm::scheduling {

struct HandoffStats {
  std::uint64_t initiated = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t received = 0;
  std::uint64_t rejected = 0;  // no handler for the session type
};

class HandoffManager {
 public:
  // Resume handler: rebuild the session from its serialized state.
  // Return kOk to accept ownership; an error refuses the handoff.
  using ResumeHandler = std::function<Status(NodeId from, const Bytes& state)>;
  using CompletionHandler = std::function<void(Status)>;

  explicit HandoffManager(transport::ReliableTransport& transport);
  ~HandoffManager();

  HandoffManager(const HandoffManager&) = delete;
  HandoffManager& operator=(const HandoffManager&) = delete;

  // Declare that this node can resume sessions of `session_type`.
  void register_session_type(const std::string& session_type, ResumeHandler handler);

  // Transfer a session to `target`. `done` fires exactly once: kOk after
  // the target acknowledged resumption (the caller must then destroy its
  // local session), or an error (kTimeout / kRejected) meaning the caller
  // still owns the session.
  void handoff(const std::string& session_type, Bytes state, NodeId target,
               CompletionHandler done, Time timeout = duration::seconds(5));

  [[nodiscard]] const HandoffStats& stats() const { return stats_; }

 private:
  enum class Kind : std::uint8_t { kTransfer = 1, kAccept = 2, kReject = 3 };

  void on_message(NodeId src, const Bytes& frame);
  void finish(CompletionHandler done, Status status);

  transport::ReliableTransport& transport_;
  std::unordered_map<std::string, ResumeHandler> handlers_;
  // Answered only by the target: an accept from any other node would
  // leave the session owned by nobody.
  net::RequestTable<CompletionHandler> transfers_;
  HandoffStats stats_;
};

}  // namespace ndsm::scheduling
