#pragma once
// Process-global virtual-clock hook. The running sim::Simulator binds
// itself here on construction so that layers below sim/ (the logger, the
// obs tracer) can stamp records with *simulated* time without depending on
// the simulator module. Exactly one clock is bound at a time; when no
// simulator is live, global_sim_time() returns kClockUnbound.

#include "common/time.hpp"

namespace ndsm {

constexpr Time kClockUnbound = -1;

// `owner` identifies the binder (the Simulator instance); `now_fn` is
// called with `owner` to read the current virtual time. Rebinding replaces
// the previous clock (last constructed wins).
void bind_sim_clock(const void* owner, Time (*now_fn)(const void*));

// No-op unless `owner` is the currently bound clock.
void unbind_sim_clock(const void* owner);

// Current virtual time, or kClockUnbound when no simulator is bound.
[[nodiscard]] Time global_sim_time();

}  // namespace ndsm
