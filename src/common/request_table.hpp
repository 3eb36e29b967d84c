#pragma once
// The requests an owner has sent and not yet seen answered: RPC calls,
// tuple-space operations, session handoffs, discovery queries, ReplFS
// reads. Each request is numbered from 1, held with the peer it went to,
// and given a deadline.
//
// A reply counts only from that peer: take() and find() return nothing
// when `from` is another node, unless the request was opened to kAnyPeer
// (a flooded query, answered by whoever matches). This matches on
// (peer, id); it is not authentication, and a sender that forges its
// NodeId still gets through. At its deadline a request leaves the table
// for the owner's one expiry handler, given at construction. Destroying
// the table cancels every deadline and runs no handler, so nothing it
// holds outlives its owner. A deadline of 0 holds a deferred delivery:
// the handler delivers it in a later event unless the owner is gone.
//
// One implementation over any timer source, like BasicPeriodicTimer:
// net::RequestTable runs it over a net::Stack.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace ndsm {

// The peer of a request that any node may answer.
inline constexpr NodeId kAnyPeer = NodeId::invalid();

template <class Entry, class TimerSource>
class BasicRequestTable {
 public:
  using ExpiryHandler = std::function<void(std::uint64_t id, Entry entry)>;

  BasicRequestTable(TimerSource& source, ExpiryHandler on_expiry)
      : source_(source), on_expiry_(std::move(on_expiry)) {}
  ~BasicRequestTable() {
    for (const auto& [id, request] : open_) source_.cancel(request.deadline);
  }

  BasicRequestTable(const BasicRequestTable&) = delete;
  BasicRequestTable& operator=(const BasicRequestTable&) = delete;

  // Numbers a request to `peer`, holds `entry` and arms its deadline.
  std::uint64_t open(NodeId peer, Entry entry, Time timeout) {
    const std::uint64_t id = next_id_++;
    const EventId deadline = source_.schedule_after(timeout, [this, id] { expire(id); });
    open_.emplace(id, Request{peer, std::move(entry), deadline});
    return id;
  }
  // Numbers a request that awaits no reply.
  std::uint64_t skip() { return next_id_++; }

  // The entry of request `id` if `from` may answer it; it stays open.
  [[nodiscard]] Entry* find(std::uint64_t id, NodeId from) {
    const auto it = open_.find(id);
    return it != open_.end() && answers(it->second, from) ? &it->second.entry : nullptr;
  }
  // The entry of request `id` if `from` may answer it; it leaves the table.
  std::optional<Entry> take(std::uint64_t id, NodeId from) {
    const auto it = open_.find(id);
    if (it == open_.end() || !answers(it->second, from)) return std::nullopt;
    source_.cancel(it->second.deadline);
    std::optional<Entry> entry{std::move(it->second.entry)};
    open_.erase(it);
    return entry;
  }
  [[nodiscard]] std::size_t size() const { return open_.size(); }

 private:
  struct Request {
    NodeId peer;
    Entry entry;
    EventId deadline;
  };

  static bool answers(const Request& request, NodeId from) {
    return request.peer == kAnyPeer || request.peer == from;
  }
  void expire(std::uint64_t id) {
    auto request = open_.extract(id);
    // Out of the table first: the handler may open a request or destroy
    // the owner.
    on_expiry_(id, std::move(request.mapped().entry));
  }

  TimerSource& source_;
  ExpiryHandler on_expiry_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Request> open_;
};

}  // namespace ndsm
