#pragma once
// Shared tuple-space middleware (§3.1/§3.6; the paper cites LIME [68] and
// T Spaces [69]). A server node hosts the space; clients OUT tuples and
// RD/IN them by template, with optional blocking: a blocking RD/IN parks
// on the server until a matching tuple arrives (or the client-side timeout
// fires).

#include <deque>
#include <functional>
#include <list>

#include "serialize/value.hpp"
#include "transport/reliable.hpp"

namespace ndsm::transactions {

using serialize::Tuple;

struct TupleSpaceStats {
  std::uint64_t outs = 0;
  std::uint64_t reads = 0;      // rd served
  std::uint64_t takes = 0;      // in served
  std::uint64_t misses = 0;     // non-blocking rd/in with no match
  std::uint64_t parked = 0;     // blocking requests that had to wait
  std::uint64_t woken = 0;      // parked requests satisfied by a later out
};

class TupleSpaceServer {
 public:
  explicit TupleSpaceServer(transport::ReliableTransport& transport);
  ~TupleSpaceServer();

  TupleSpaceServer(const TupleSpaceServer&) = delete;
  TupleSpaceServer& operator=(const TupleSpaceServer&) = delete;

  [[nodiscard]] NodeId node() const { return transport_.self(); }
  [[nodiscard]] std::size_t tuple_count() const { return tuples_.size(); }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }
  [[nodiscard]] const TupleSpaceStats& stats() const { return stats_; }

 private:
  struct ParkedRequest {
    NodeId client;
    std::uint64_t request_id;
    Tuple tmpl;
    bool take;  // in vs rd
  };

  void on_message(NodeId src, const Bytes& frame);
  void reply(NodeId client, std::uint64_t request_id, bool found, const Tuple& tuple);

  transport::ReliableTransport& transport_;
  std::list<Tuple> tuples_;  // FIFO matching order
  std::list<ParkedRequest> parked_;
  TupleSpaceStats stats_;
};

class TupleSpaceClient {
 public:
  // found=false => timeout (blocking) or no match (non-blocking).
  using TupleCallback = std::function<void(bool found, Tuple tuple)>;

  TupleSpaceClient(transport::ReliableTransport& transport, NodeId server);
  ~TupleSpaceClient();

  TupleSpaceClient(const TupleSpaceClient&) = delete;
  TupleSpaceClient& operator=(const TupleSpaceClient&) = delete;

  // Insert a tuple; `done` (optional) fires once the server accepted it.
  void out(const Tuple& tuple, std::function<void(Status)> done = nullptr);
  // Copy a matching tuple (leaves it in the space).
  void rd(const Tuple& tmpl, TupleCallback callback, bool blocking = false,
          Time timeout = duration::seconds(2));
  // Remove and return a matching tuple.
  void in(const Tuple& tmpl, TupleCallback callback, bool blocking = false,
          Time timeout = duration::seconds(2));

 private:
  // A blocking request that expires is cancelled at the server.
  struct Waiting {
    TupleCallback callback;
    bool blocking = false;
  };

  void request(const Tuple& tmpl, bool take, bool blocking, Time timeout,
               TupleCallback callback);
  void on_message(NodeId src, const Bytes& frame);
  void finish(std::uint64_t request_id, NodeId src, bool found, Tuple tuple);

  transport::ReliableTransport& transport_;
  NodeId server_;
  net::RequestTable<Waiting> requests_;
};

}  // namespace ndsm::transactions
