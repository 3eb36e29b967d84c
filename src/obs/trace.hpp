#pragma once
// Sim-time tracer: a bounded ring buffer of typed trace records stamped
// with *virtual* time (the bound Simulator's clock via common/clock), so a
// trace from a 10-hour simulated run reads in simulated seconds no matter
// how fast wall-clock execution was.
//
// Two record shapes share one type:
//   * instant events  — duration < 0 (node death, replan, query answered)
//   * spans           — duration >= 0, written by the RAII SpanScope whose
//                       destructor measures elapsed virtual time
//
// The ring holds the most recent `capacity` records; older records are
// overwritten (recorded() keeps the lifetime total so wraparound is
// detectable). Per-message and per-hop events (transport deliveries,
// retransmits, routing forwards) fill their ring slot in place through
// begin_record()/begin_instant(), so at steady state they allocate
// nothing; control-plane events use the convenience overloads.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace ndsm::obs {

struct TraceEvent {
  Time at = 0;         // virtual time the event fired (span: start time)
  Time duration = -1;  // virtual-time span length; -1 for instant events
  std::string component;
  std::string name;
  std::int64_t node = -1;
  // Causal linkage (0 = not part of a wire-propagated trace): trace_id is
  // shared by every event in one causal chain, span_id names this event,
  // parent_span is the span that caused it (possibly on another node).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::vector<std::pair<std::string, std::string>> kv;

  [[nodiscard]] bool is_span() const { return duration >= 0; }

  // Sets kv[i] to (key, decimal value) in place: the slot's retained
  // strings are overwritten, so a reused ring slot does not allocate.
  void set_kv(std::size_t i, std::string_view key, std::uint64_t value);
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Process-wide default tracer used by the instrumented layers.
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Push a fully-formed record (caller fills `at`; event() and SpanScope
  // stamp virtual time for you).
  void record(TraceEvent ev);

  // Zero-allocation fast path for per-message hot events: returns the
  // ring slot to fill in place (or nullptr when disabled), with recorded/
  // dropped bookkeeping already done. Reused slots keep stale contents —
  // the caller must overwrite every field it cares about (including
  // duration = -1 for instants) and kv.clear(); string/vector assigns
  // then reuse the slot's retained capacity instead of allocating.
  TraceEvent* begin_record();
  // begin_record() for an instant event: stamps now, duration -1, the
  // given names and ids, and sizes kv to `kv_count` entries for the
  // caller to fill with TraceEvent::set_kv. nullptr when disabled.
  TraceEvent* begin_instant(std::string_view component, std::string_view name,
                            std::int64_t node, std::uint64_t trace_id, std::uint64_t span_id,
                            std::uint64_t parent_span, std::size_t kv_count = 0);

  // Convenience: instant event stamped now.
  void event(std::string component, std::string name, std::int64_t node = -1,
             std::vector<std::pair<std::string, std::string>> kv = {});
  // Instant event with causal linkage (trace/span/parent ids).
  void event_traced(std::string component, std::string name, std::int64_t node,
                    std::uint64_t trace_id, std::uint64_t span_id, std::uint64_t parent_span,
                    std::vector<std::pair<std::string, std::string>> kv = {});

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Drops all buffered records.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t size() const;
  // Lifetime total, including records already overwritten by wraparound.
  [[nodiscard]] std::uint64_t recorded() const { return total_; }
  // Records lost to ring wraparound since the last clear() — the flight
  // recorder's "how much history did I miss" gauge, exported as
  // obs.tracer.dropped on the default instance.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear();

  // Buffered records, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  // One JSON object per line:
  //   {"t_us":1523000,"component":"milan.engine","name":"replan",
  //    "dur_us":0,"kv":{"feasible":"true","active":"3"}}
  void write_jsonl(std::ostream& out) const;
  bool dump_jsonl(const std::string& path) const;

  // Chrome/Perfetto trace_event export (load at ui.perfetto.dev or
  // chrome://tracing): pid = node, tid = per-node component lane, spans
  // with causal ids become nestable async b/e events with flow arrows to
  // their parents, untraced spans become complete ("X") events.
  void write_perfetto(std::ostream& out) const;
  bool dump_perfetto(const std::string& path) const;

 private:
  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;       // next write position once the ring is full
  std::uint64_t total_ = 0;    // lifetime record count
  std::uint64_t dropped_ = 0;  // records overwritten by wraparound
  MetricGroup metrics_;        // populated only on the default instance
};

// RAII span: measures elapsed virtual time between construction and
// destruction and records one span event.
//
//   { obs::SpanScope span("milan.engine", "replan", node);
//     span.kv("state", state_);  ...  }
class SpanScope {
 public:
  SpanScope(std::string component, std::string name, std::int64_t node = -1,
            Tracer& tracer = Tracer::instance());
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void kv(std::string key, std::string value) {
    ev_.kv.emplace_back(std::move(key), std::move(value));
  }
  void kv(std::string key, std::int64_t value) { kv(std::move(key), std::to_string(value)); }
  void kv(std::string key, std::uint64_t value) { kv(std::move(key), std::to_string(value)); }
  void kv(std::string key, double value);
  void kv(std::string key, bool value) {
    kv(std::move(key), std::string(value ? "true" : "false"));
  }

  // Attach causal ids so this span joins a wire-propagated trace.
  void trace(std::uint64_t trace_id, std::uint64_t span_id, std::uint64_t parent_span = 0) {
    ev_.trace_id = trace_id;
    ev_.span_id = span_id;
    ev_.parent_span = parent_span;
  }

 private:
  Tracer& tracer_;
  TraceEvent ev_;
};

// Logger sink that turns every log record into a trace event (name "log",
// kv: level + message), so log output lands on the same virtual timeline
// as spans and metrics events:
//   Logger::instance().set_sink(obs::trace_log_sink());
[[nodiscard]] Logger::Sink trace_log_sink(Tracer& tracer = Tracer::instance());

}  // namespace ndsm::obs
