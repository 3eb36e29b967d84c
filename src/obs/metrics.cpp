#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <iomanip>

#include "obs/json.hpp"

namespace ndsm::obs {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  sum_ = 0.0;
  count_ = 0;
}

std::vector<double> latency_ms_bounds() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

double quantile_from(const std::vector<double>& bounds, const std::vector<std::uint64_t>& counts,
                     double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: no finite upper edge to interpolate towards.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double frac = (target - before) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double Histogram::quantile(double q) const { return quantile_from(bounds_, counts_, q); }

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricId MetricsRegistry::add_counter(std::string name, MetricLabels labels,
                                      const std::uint64_t* source) {
  assert(source != nullptr);
  Metric m;
  m.id = next_id_++;
  m.kind = MetricKind::kCounter;
  m.name = std::move(name);
  m.labels = std::move(labels);
  m.counter_ptr = source;
  metrics_.push_back(std::move(m));
  return metrics_.back().id;
}

MetricId MetricsRegistry::add_counter_fn(std::string name, MetricLabels labels,
                                         std::function<std::uint64_t()> source) {
  Metric m;
  m.id = next_id_++;
  m.kind = MetricKind::kCounter;
  m.name = std::move(name);
  m.labels = std::move(labels);
  m.counter_fn = std::move(source);
  metrics_.push_back(std::move(m));
  return metrics_.back().id;
}

MetricId MetricsRegistry::add_gauge(std::string name, MetricLabels labels,
                                    std::function<double()> source) {
  Metric m;
  m.id = next_id_++;
  m.kind = MetricKind::kGauge;
  m.name = std::move(name);
  m.labels = std::move(labels);
  m.gauge_fn = std::move(source);
  metrics_.push_back(std::move(m));
  return metrics_.back().id;
}

MetricId MetricsRegistry::add_family(std::string name, MetricKind kind, MetricLabels labels,
                                     std::function<std::size_t()> rows,
                                     std::function<double(std::size_t)> value) {
  assert(kind != MetricKind::kHistogram && rows && value);
  Metric m;
  m.id = next_id_++;
  m.kind = kind;
  m.name = std::move(name);
  m.labels = std::move(labels);
  m.rows = std::move(rows);
  m.row_value = std::move(value);
  metrics_.push_back(std::move(m));
  return metrics_.back().id;
}

Histogram* MetricsRegistry::add_histogram(std::string name, MetricLabels labels,
                                          std::vector<double> upper_bounds, MetricId* id_out) {
  Metric m;
  m.id = next_id_++;
  m.kind = MetricKind::kHistogram;
  m.name = std::move(name);
  m.labels = std::move(labels);
  m.hist = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* out = m.hist.get();
  if (id_out != nullptr) *id_out = m.id;
  metrics_.push_back(std::move(m));
  return out;
}

void MetricsRegistry::remove_all(const std::vector<MetricId>& ids) {
  for (const MetricId id : ids) {
    const auto it = std::lower_bound(metrics_.begin(), metrics_.end(), id,
                                     [](const Metric& m, MetricId v) { return m.id < v; });
    if (it == metrics_.end() || it->id != id || it->removed) continue;
    *it = Metric{};
    it->id = id;
    it->removed = true;
    removed_++;
  }
  if (removed_ * 2 > metrics_.size()) {
    metrics_.erase(std::remove_if(metrics_.begin(), metrics_.end(),
                                  [](const Metric& m) { return m.removed; }),
                   metrics_.end());
    removed_ = 0;
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(size());
  for (const Metric& m : metrics_) {
    if (m.removed) continue;
    if (m.rows) {
      const std::size_t rows = m.rows();
      for (std::size_t i = 0; i < rows; ++i) {
        out.push_back(MetricSample{m.kind, m.name, {m.labels.component, static_cast<std::int64_t>(i)},
                                   m.row_value(i), nullptr, std::nullopt});
      }
      continue;
    }
    MetricSample s;
    s.kind = m.kind;
    s.name = m.name;
    s.labels = m.labels;
    switch (m.kind) {
      case MetricKind::kCounter:
        s.count = m.counter_ptr != nullptr ? *m.counter_ptr : m.counter_fn();
        s.value = static_cast<double>(*s.count);
        break;
      case MetricKind::kGauge:
        s.value = m.gauge_fn();
        break;
      case MetricKind::kHistogram:
        s.hist = m.hist.get();
        s.value = static_cast<double>(m.hist->count());
        break;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const MetricSample& a, const MetricSample& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.labels.component != b.labels.component) return a.labels.component < b.labels.component;
    return a.labels.node < b.labels.node;
  });
  return out;
}

void MetricsRegistry::write_table(std::ostream& out) const {
  const auto samples = snapshot();
  out << std::left << std::setw(44) << "metric" << std::setw(10) << "type"
      << std::setw(8) << "node" << "value\n";
  out << std::string(76, '-') << "\n";
  for (const MetricSample& s : samples) {
    out << std::left << std::setw(44) << s.name << std::setw(10)
        << metric_kind_name(s.kind) << std::setw(8);
    if (s.labels.node >= 0) {
      out << s.labels.node;
    } else {
      out << "-";
    }
    if (s.kind == MetricKind::kHistogram) {
      out << "count=" << s.hist->count() << " mean=" << json_number(s.hist->mean())
          << " sum=" << json_number(s.hist->sum())
          << " p50=" << json_number(s.hist->quantile(0.50))
          << " p95=" << json_number(s.hist->quantile(0.95))
          << " p99=" << json_number(s.hist->quantile(0.99));
    } else if (s.count) {
      out << *s.count;
    } else {
      out << json_number(s.value);
    }
    out << "\n";
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  for (const MetricSample& s : snapshot()) {
    JsonObject o;
    o.field("name", s.name)
        .field("type", metric_kind_name(s.kind))
        .field("component", s.labels.component);
    if (s.labels.node >= 0) o.field("node", s.labels.node);
    if (s.kind == MetricKind::kHistogram) {
      o.field("count", s.hist->count()).field("sum", s.hist->sum());
      std::string buckets = "[";
      const auto& bounds = s.hist->bounds();
      const auto& counts = s.hist->counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i > 0) buckets += ',';
        buckets += "{\"le\":";
        buckets += i < bounds.size() ? json_number(bounds[i]) : "\"inf\"";
        buckets += ",\"count\":" + std::to_string(counts[i]) + "}";
      }
      buckets += "]";
      o.raw_field("buckets", buckets);
    } else if (s.count) {
      o.field("value", *s.count);
    } else {
      o.field("value", s.value);
    }
    out << o.str() << "\n";
  }
}

bool MetricsRegistry::dump_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace ndsm::obs
