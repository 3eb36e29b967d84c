#pragma once
// Controlled flooding with per-origin duplicate suppression. Baseline for
// E2 (discovery) and E6 (routing energy): correct everywhere, expensive
// everywhere. Every frame is a flood: send() floods toward its target,
// which stops the flood, and data or control frames are ignored.

#include "routing/router.hpp"

namespace ndsm::routing {

class FloodingRouter : public Router {
 public:
  explicit FloodingRouter(net::Stack& stack);
  ~FloodingRouter() override;

  Status send(NodeId dst, Proto upper, Bytes payload) override;
};

}  // namespace ndsm::routing
