#pragma once
// Fires a callback every `interval` until stopped or destroyed. Used for
// advertisement/heartbeat/route-update periodics throughout the stack.
//
// One implementation over any timer source that offers
// `schedule_after(Time, std::function<void()>) -> EventId` and
// `cancel(EventId)`: sim::PeriodicTimer runs it over sim::Simulator,
// net::PeriodicTimer over a net::Stack, so components moved onto the
// network seam keep their event schedule bit for bit.

#include <functional>
#include <utility>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace ndsm {

template <class TimerSource>
class BasicPeriodicTimer {
 public:
  BasicPeriodicTimer(TimerSource& source, Time interval, std::function<void()> fn)
      : source_(source), interval_(interval), fn_(std::move(fn)) {}
  ~BasicPeriodicTimer() { stop(); }

  BasicPeriodicTimer(const BasicPeriodicTimer&) = delete;
  BasicPeriodicTimer& operator=(const BasicPeriodicTimer&) = delete;

  // Start (or restart) the timer; first firing after `initial_delay`
  // (defaults to the interval).
  void start(Time initial_delay = -1) {
    stop();
    running_ = true;
    arm(initial_delay >= 0 ? initial_delay : interval_);
  }
  void stop() {
    if (pending_.valid()) {
      source_.cancel(pending_);
      pending_ = EventId::invalid();
    }
    running_ = false;
  }
  [[nodiscard]] bool running() const { return running_; }
  // Takes effect when the timer next re-arms; an already-armed tick keeps
  // its old deadline (pinned by EdgeTimer.SetIntervalTakesEffectNextArm).
  void set_interval(Time interval) { interval_ = interval; }
  [[nodiscard]] Time interval() const { return interval_; }

 private:
  void arm(Time delay) {
    pending_ = source_.schedule_after(delay, [this] {
      pending_ = EventId::invalid();
      if (!running_) return;
      fn_();
      // A handler that called start() already armed the next firing; arming
      // again here would leave a duplicate, uncancellable event in flight.
      if (running_ && !pending_.valid()) arm(interval_);
    });
  }

  TimerSource& source_;
  Time interval_;
  std::function<void()> fn_;
  EventId pending_ = EventId::invalid();
  bool running_ = false;
};

}  // namespace ndsm
