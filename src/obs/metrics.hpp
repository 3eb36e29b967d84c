#pragma once
// MetricsRegistry — the unified metrics surface for every middleware layer
// (§4: MiLAN "continually monitors" application QoS and network cost; this
// is the substrate that makes those quantities inspectable at runtime).
//
// Design constraints, in order:
//   1. Hot paths stay hot. Subsystem stats remain plain uint64_t bumps on
//      structs the subsystem owns (`WorldStats`, `TransportStats`, ...).
//      The registry holds *views* — a pointer or a pull callback — that
//      are only dereferenced at export time. Registering a metric costs a
//      couple of allocations once, per component instance; reading the
//      counter costs nothing extra, ever.
//   2. Every metric carries a `layer.subsystem.metric` name plus labels
//      (component instance name, node id) so per-node series from 400-node
//      fields stay distinguishable in one flat export.
//   3. Components unregister automatically: they hold a MetricGroup whose
//      destructor removes everything it registered, so short-lived Worlds
//      and transports in tests never leave dangling views behind.
//
// Histograms are the one metric kind with registry-adjacent storage (a
// fixed bucket array, pointer-stable). observe() is a short linear scan
// over the bounds — cheap enough for per-message paths.

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ndsm::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

// Instance labels attached to every metric. `node` is -1 for metrics that
// are not node-scoped (e.g. a shared routing table).
struct MetricLabels {
  std::string component;
  std::int64_t node = -1;
};

// Fixed-bucket histogram. Bounds are inclusive upper edges in ascending
// order; an implicit +inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) {
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    counts_[i]++;
    sum_ += value;
    count_++;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  // q-quantile (q in [0,1]) with linear interpolation inside the bucket
  // that crosses the target rank. Bucket 0 interpolates from 0; the +inf
  // overflow bucket reports the last finite bound (the histogram cannot
  // resolve beyond it). 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1; the last bucket is +inf.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

// Canonical millisecond-latency bounds (values observed in milliseconds).
[[nodiscard]] std::vector<double> latency_ms_bounds();

// Quantile over raw bucket arrays (same semantics as Histogram::quantile);
// lets offline consumers (bench aggregation, trace analysis) reuse the
// interpolation without reconstructing a Histogram.
[[nodiscard]] double quantile_from(const std::vector<double>& bounds,
                                   const std::vector<std::uint64_t>& counts, double q);

using MetricId = std::uint64_t;

// Snapshot row produced by MetricsRegistry::snapshot(); `hist` is only set
// for histogram rows and points at registry-owned storage.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  MetricLabels labels;
  double value = 0.0;
  const Histogram* hist = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide default registry; what instrumented middleware layers use.
  static MetricsRegistry& instance();

  // Counter view over a subsystem-owned uint64_t. The pointee must outlive
  // the registration (components guarantee this by holding the MetricGroup
  // as a member next to their stats struct).
  MetricId add_counter(std::string name, MetricLabels labels, const std::uint64_t* source);
  // Counter pulled through a callback (for sources without a stable
  // address, e.g. per-node stats inside a reallocating vector).
  MetricId add_counter_fn(std::string name, MetricLabels labels,
                          std::function<std::uint64_t()> source);
  // Gauges are always pull-based: sampled at export time.
  MetricId add_gauge(std::string name, MetricLabels labels, std::function<double()> source);
  // A family of node-scoped rows: `rows()` of them at export time, row i
  // labelled node i and sampled as `value(i)`. One registration covers
  // every node, however many there are.
  MetricId add_family(std::string name, MetricKind kind, MetricLabels labels,
                      std::function<std::size_t()> rows, std::function<double(std::size_t)> value);
  // Registry-owned histogram storage; the returned pointer is stable until
  // the metric is removed.
  Histogram* add_histogram(std::string name, MetricLabels labels,
                           std::vector<double> upper_bounds, MetricId* id_out = nullptr);

  // Removes the given metrics (what MetricGroup::clear uses). Each id is
  // found by binary search and left as a tombstone; the tombstones are
  // swept out, keeping registration order, once they outnumber the live
  // metrics. Removing k metrics costs O(k log n) plus sweeps that
  // amortize to O(1) per metric, not a scan of the registry per group.
  void remove_all(const std::vector<MetricId>& ids);

  // Registrations, a family counting once.
  [[nodiscard]] std::size_t size() const { return metrics_.size() - removed_; }

  // All metrics, sampled now (each family expanded into its rows), sorted
  // by (name, component, node).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  // Human-readable aligned table (counters/gauges one row each, histograms
  // as count/mean/max-bucket summaries).
  void write_table(std::ostream& out) const;

  // One JSON object per line:
  //   {"name":"transport.reliable.retransmissions","type":"counter",
  //    "component":"transport.reliable","node":3,"value":17}
  // Histogram lines add "sum", "count", "buckets" (le/count pairs).
  void write_jsonl(std::ostream& out) const;

  // write_jsonl to `path`; returns false (and leaves no partial file
  // guarantee) if the file cannot be opened.
  bool dump_jsonl(const std::string& path) const;

 private:
  struct Metric {
    MetricId id = 0;
    bool removed = false;  // a tombstone: id kept, everything else released
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    MetricLabels labels;
    const std::uint64_t* counter_ptr = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::unique_ptr<Histogram> hist;
    std::function<std::size_t()> rows;  // set: a family
    std::function<double(std::size_t)> row_value;
  };

  MetricId next_id_ = 1;
  std::vector<Metric> metrics_;  // registration order, hence ascending id
  std::size_t removed_ = 0;      // tombstones in metrics_
};

// RAII bundle of registrations: everything added through a group is
// removed when the group is destroyed (or clear()ed). Instrumented
// components hold one as a member, declared after the stats it exposes.
class MetricGroup {
 public:
  MetricGroup() : registry_(&MetricsRegistry::instance()) {}
  explicit MetricGroup(MetricsRegistry& registry) : registry_(&registry) {}
  ~MetricGroup() { clear(); }

  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  // Labels applied to subsequent registrations.
  void set_labels(std::string component, std::int64_t node = -1) {
    labels_ = MetricLabels{std::move(component), node};
  }
  [[nodiscard]] const MetricLabels& labels() const { return labels_; }

  void counter(std::string name, const std::uint64_t* source) {
    owned_.push_back(registry_->add_counter(std::move(name), labels_, source));
  }
  void counter_fn(std::string name, std::function<std::uint64_t()> source) {
    owned_.push_back(registry_->add_counter_fn(std::move(name), labels_, std::move(source)));
  }
  void gauge(std::string name, std::function<double()> source) {
    owned_.push_back(registry_->add_gauge(std::move(name), labels_, std::move(source)));
  }
  void family(std::string name, MetricKind kind, std::function<std::size_t()> rows,
              std::function<double(std::size_t)> value) {
    owned_.push_back(registry_->add_family(std::move(name), kind, labels_, std::move(rows),
                                           std::move(value)));
  }
  Histogram& histogram(std::string name, std::vector<double> upper_bounds) {
    MetricId id = 0;
    Histogram* h = registry_->add_histogram(std::move(name), labels_, std::move(upper_bounds), &id);
    owned_.push_back(id);
    return *h;
  }

  void clear() {
    registry_->remove_all(owned_);
    owned_.clear();
  }

 private:
  MetricsRegistry* registry_;
  MetricLabels labels_;
  std::vector<MetricId> owned_;
};

}  // namespace ndsm::obs
