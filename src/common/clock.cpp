#include "common/clock.hpp"

namespace ndsm {
namespace {

struct BoundClock {
  const void* owner = nullptr;
  Time (*now_fn)(const void*) = nullptr;
};

BoundClock& bound() {
  static BoundClock clock;
  return clock;
}

}  // namespace

void bind_sim_clock(const void* owner, Time (*now_fn)(const void*)) {
  bound() = BoundClock{owner, now_fn};
}

void unbind_sim_clock(const void* owner) {
  if (bound().owner == owner) bound() = BoundClock{};
}

Time global_sim_time() {
  const BoundClock& clock = bound();
  return clock.now_fn != nullptr ? clock.now_fn(clock.owner) : kClockUnbound;
}

}  // namespace ndsm
