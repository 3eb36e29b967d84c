#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "obs/json.hpp"

namespace ndsm::obs {
namespace {

// Unbound clock (no live simulator) stamps as t=0 rather than -1 so the
// exported timeline stays non-negative.
Time stamp_now() {
  const Time t = global_sim_time();
  return t == kClockUnbound ? 0 : t;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  static bool registered = [] {
    // Only the process-wide instance exports metrics; test-local tracers
    // would otherwise pile up duplicate obs.tracer.* registrations.
    tracer.metrics_.set_labels("obs.tracer");
    tracer.metrics_.counter_fn("obs.tracer.dropped", [] { return tracer.dropped_; });
    tracer.metrics_.counter_fn("obs.tracer.recorded", [] { return tracer.total_; });
    return true;
  }();
  (void)registered;
  return tracer;
}

void Tracer::record(TraceEvent ev) {
  if (!enabled_) return;
  total_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  // Full: overwrite the oldest record.
  dropped_++;
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
}

TraceEvent* Tracer::begin_record() {
  if (!enabled_) return nullptr;
  total_++;
  if (ring_.size() < capacity_) {
    return &ring_.emplace_back();
  }
  dropped_++;
  TraceEvent* ev = &ring_[head_];
  head_ = (head_ + 1) % capacity_;
  return ev;
}

void TraceEvent::set_kv(std::size_t i, std::string_view key, std::uint64_t value) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  kv[i].first.assign(key);
  kv[i].second.assign(digits, end);
}

TraceEvent* Tracer::begin_instant(std::string_view component, std::string_view name,
                                  std::int64_t node, std::uint64_t trace_id,
                                  std::uint64_t span_id, std::uint64_t parent_span,
                                  std::size_t kv_count) {
  TraceEvent* ev = begin_record();
  if (ev == nullptr) return nullptr;
  ev->at = stamp_now();
  ev->duration = -1;
  ev->component.assign(component);
  ev->name.assign(name);
  ev->node = node;
  ev->trace_id = trace_id;
  ev->span_id = span_id;
  ev->parent_span = parent_span;
  ev->kv.resize(kv_count);
  return ev;
}

void Tracer::event(std::string component, std::string name, std::int64_t node,
                   std::vector<std::pair<std::string, std::string>> kv) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.at = stamp_now();
  ev.component = std::move(component);
  ev.name = std::move(name);
  ev.node = node;
  ev.kv = std::move(kv);
  record(std::move(ev));
}

void Tracer::event_traced(std::string component, std::string name, std::int64_t node,
                          std::uint64_t trace_id, std::uint64_t span_id,
                          std::uint64_t parent_span,
                          std::vector<std::pair<std::string, std::string>> kv) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.at = stamp_now();
  ev.component = std::move(component);
  ev.name = std::move(name);
  ev.node = node;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.parent_span = parent_span;
  ev.kv = std::move(kv);
  record(std::move(ev));
}

std::size_t Tracer::size() const { return ring_.size(); }

void Tracer::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  clear();
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // head_ is the oldest record once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& ev : snapshot()) {
    JsonObject o;
    o.field("t_us", static_cast<std::int64_t>(ev.at));
    o.field("component", ev.component).field("name", ev.name);
    if (ev.node >= 0) o.field("node", ev.node);
    if (ev.is_span()) o.field("dur_us", static_cast<std::int64_t>(ev.duration));
    if (ev.trace_id != 0) {
      o.field("trace", ev.trace_id).field("span", ev.span_id);
      if (ev.parent_span != 0) o.field("parent", ev.parent_span);
    }
    if (!ev.kv.empty()) {
      std::string kv = "{";
      for (std::size_t i = 0; i < ev.kv.size(); ++i) {
        if (i > 0) kv += ',';
        kv += "\"" + json_escape(ev.kv[i].first) + "\":\"" + json_escape(ev.kv[i].second) + "\"";
      }
      kv += "}";
      o.raw_field("kv", kv);
    }
    out << o.str() << "\n";
  }
}

bool Tracer::dump_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

SpanScope::SpanScope(std::string component, std::string name, std::int64_t node, Tracer& tracer)
    : tracer_(tracer) {
  ev_.at = stamp_now();
  ev_.component = std::move(component);
  ev_.name = std::move(name);
  ev_.node = node;
}

SpanScope::~SpanScope() {
  ev_.duration = std::max<Time>(0, stamp_now() - ev_.at);
  tracer_.record(std::move(ev_));
}

void SpanScope::kv(std::string key, double value) {
  kv(std::move(key), json_number(value));
}

Logger::Sink trace_log_sink(Tracer& tracer) {
  return [&tracer](LogLevel level, const std::string& component, const std::string& line) {
    tracer.event(component, "log", -1,
                 {{"level", log_level_name(level)}, {"line", line}});
  };
}

}  // namespace ndsm::obs
