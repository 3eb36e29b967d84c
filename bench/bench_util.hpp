#pragma once
// Shared helpers for the experiment harness: table printing and canned
// network fields. Each bench binary regenerates one table/figure from
// DESIGN.md's experiment index and prints paper-value vs measured where a
// paper value exists.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "node/runtime.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "routing/global.hpp"
#include "sim/simulator.hpp"
#include "transport/reliable.hpp"

namespace ndsm::bench {

inline void header(const std::string& id, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

// Machine-readable bench summary: every bench binary ends by emitting
// exactly one line of the form
//   BENCH_JSON {"bench":"milan_adaptation","lifetime_gain":1.42,...}
// run_benches.sh strips the prefix and collects the JSON objects into
// bench_metrics.jsonl. Keys alternate with values:
//   emit_json("routing_energy", "lifetime_gain", 1.5, "nodes", 100);
inline void emit_json_fields(obs::JsonObject&) {}
template <class V, class... Rest>
void emit_json_fields(obs::JsonObject& o, std::string_view key, V value, Rest&&... rest) {
  o.field(key, value);
  emit_json_fields(o, std::forward<Rest>(rest)...);
}
// Fleet-wide RTT tail latency: every live ReliableTransport registers a
// transport.reliable.rtt_ms histogram (identical bounds), so summing the
// bucket arrays and interpolating gives the cross-node distribution. All
// zeros when no transport has completed a message (or none is alive when
// the bench emits).
inline void append_rtt_percentiles(obs::JsonObject& o) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  for (const auto& s : obs::MetricsRegistry::instance().snapshot()) {
    if (s.kind != obs::MetricKind::kHistogram || s.hist == nullptr ||
        s.name != "transport.reliable.rtt_ms") {
      continue;
    }
    if (bounds.empty()) {
      bounds = s.hist->bounds();
      counts.assign(s.hist->counts().size(), 0);
    }
    for (std::size_t i = 0; i < counts.size() && i < s.hist->counts().size(); ++i) {
      counts[i] += s.hist->counts()[i];
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  // No transport histogram registered, or registered but empty: omit the
  // rtt_* keys instead of emitting a fake 0. bench_compare.py only diffs
  // fields present in both files, so an absent key is silence while a
  // zero is noise that poisons the baseline.
  if (bounds.empty() || total == 0) return;
  o.field("rtt_p50_ms", obs::quantile_from(bounds, counts, 0.50));
  o.field("rtt_p95_ms", obs::quantile_from(bounds, counts, 0.95));
  o.field("rtt_p99_ms", obs::quantile_from(bounds, counts, 0.99));
}

template <class... Fields>
void emit_json(const std::string& bench, Fields&&... fields) {
  obs::JsonObject o;
  o.field("bench", bench);
  emit_json_fields(o, std::forward<Fields>(fields)...);
  append_rtt_percentiles(o);
  std::printf("\nBENCH_JSON %s\n", o.str().c_str());
  std::fflush(stdout);
}

// Set by `run_benches.sh --quick`: benches shrink sizes/iterations to one
// pass but still emit their BENCH_JSON summary line.
inline bool quick_mode() {
  const char* q = std::getenv("NDSM_BENCH_QUICK");
  return q != nullptr && *q != '\0' && *q != '0';
}

inline void row_sep() {
  std::printf("----------------------------------------------------------------\n");
}

// Fault benches report medians over a fixed seed set, so one realization
// of the fault draws cannot move a gated number: `base` and the seeds
// after it, 9 of them (3 in quick mode).
inline std::vector<std::uint64_t> seed_set(std::uint64_t base) {
  std::vector<std::uint64_t> seeds(quick_mode() ? 3 : 9);
  for (std::size_t k = 0; k < seeds.size(); ++k) seeds[k] = base + k;
  return seeds;
}

// Median of `values` (the mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// A wireless multi-hop field: sqrt(n) x sqrt(n) lattice, node 0 at the
// corner (typically the sink/directory).
struct Field {
  Field(std::size_t n, double spacing, std::uint64_t seed, double battery_j,
        routing::Metric metric = routing::Metric::kHopCount, double loss = 0.0,
        net::LinkSpec base = net::wifi80211())
      : sim(seed), world(sim) {
    base.range_m = spacing * 1.25;  // 4-connected lattice
    base.loss_probability = loss;
    medium = world.add_medium(base);
    const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    table = std::make_shared<routing::GlobalRoutingTable>(world, metric);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 pos{static_cast<double>(i % side) * spacing,
                     static_cast<double>(i / side) * spacing};
      const NodeId id = world.add_node(
          pos, battery_j > 0 ? net::Battery{battery_j} : net::Battery::mains());
      world.attach(id, medium);
      nodes.push_back(id);
    }
  }

  template <class RouterT, class... Args>
  void with_routers(Args... args) {
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kCustom;
    cfg.router_factory = [args...](net::Stack& stack) {
      return std::make_unique<RouterT>(stack, args...);
    };
    for (const NodeId id : nodes) {
      runtimes.push_back(std::make_unique<node::Runtime>(world, id, cfg));
    }
  }

  void with_global_routers() {
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kGlobal;
    cfg.table = table;
    for (const NodeId id : nodes) {
      runtimes.push_back(std::make_unique<node::Runtime>(world, id, cfg));
    }
  }

  node::Runtime& runtime(std::size_t i) { return *runtimes[i]; }
  transport::ReliableTransport& transport(std::size_t i) { return runtimes[i]->transport(); }
  routing::Router& router(std::size_t i) { return runtimes[i]->router(); }

  routing::Router* router_of(NodeId id) { return node::router_of(runtimes, id); }

  sim::Simulator sim;
  net::World world;
  MediumId medium;
  std::shared_ptr<routing::GlobalRoutingTable> table;
  std::vector<NodeId> nodes;
  std::vector<std::unique_ptr<node::Runtime>> runtimes;
};

}  // namespace ndsm::bench
