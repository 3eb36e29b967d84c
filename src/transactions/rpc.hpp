#pragma once
// Remote procedure calls (§3.6 lists RPC among transaction technologies).
// Asynchronous request/response over the reliable transport: calls never
// block, responses arrive via callback, timeouts are first-class.

#include <functional>
#include <string>
#include <unordered_map>

#include "transport/reliable.hpp"

namespace ndsm::transactions {

struct RpcStats {
  std::uint64_t calls_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t calls_served = 0;
  std::uint64_t unknown_method = 0;
};

class RpcEndpoint {
 public:
  // Server-side method: returns the response payload or an error Status.
  using Handler = std::function<Result<Bytes>(NodeId caller, const Bytes& request)>;
  using ResponseCallback = std::function<void(Result<Bytes>)>;

  explicit RpcEndpoint(transport::ReliableTransport& transport);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  void register_method(const std::string& name, Handler handler);

  // Invoke `method` on `server`. `callback` fires exactly once: with the
  // response payload, or kTimeout / the server-reported error.
  void call(NodeId server, const std::string& method, Bytes args, ResponseCallback callback,
            Time timeout = duration::seconds(2));

  [[nodiscard]] const RpcStats& stats() const { return stats_; }
  [[nodiscard]] NodeId self() const { return transport_.self(); }

 private:
  enum class Kind : std::uint8_t { kRequest = 1, kResponse = 2 };

  void on_message(NodeId src, const Bytes& frame);

  transport::ReliableTransport& transport_;
  std::unordered_map<std::string, Handler> methods_;
  net::RequestTable<ResponseCallback> calls_;  // answered by the server called
  RpcStats stats_;
};

}  // namespace ndsm::transactions
