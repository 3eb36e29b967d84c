#pragma once
// Controlled flooding with per-origin duplicate suppression, the router
// of E2 (discovery), A2 (fragment size) and the UDP fleets: correct
// everywhere, expensive wherever a target is more than one hop away.
// send() first offers the target one kData frame straight over the link;
// only when the link refuses it (the target is out of one-hop range)
// does it flood toward the target, which stops the flood. On one
// segment, such as a loopback UDP fleet, every routed frame is therefore
// one datagram. Received floods are relayed; a received kData frame is
// delivered when addressed here and never relayed; control frames are
// ignored.

#include "routing/router.hpp"

namespace ndsm::routing {

class FloodingRouter : public Router {
 public:
  explicit FloodingRouter(net::Stack& stack);
  ~FloodingRouter() override;

  Status send(NodeId dst, Proto upper, Bytes payload) override;
};

}  // namespace ndsm::routing
