// Observability layer: metrics registry semantics, the sim-time tracer's
// ring buffer, JSON-lines emission, and — the migration contract — that the
// subsystem *Stats accessors and the registry views report identical values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "milan/engine.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serialize/codec.hpp"
#include "test_helpers.hpp"

namespace ndsm {
namespace {

using obs::Histogram;
using obs::MetricGroup;
using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::Tracer;

const MetricSample* find_sample(const std::vector<MetricSample>& samples,
                                const std::string& name, std::int64_t node = -1) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels.node == node) return &s;
  }
  return nullptr;
}

TEST(Metrics, CounterViewTracksSource) {
  MetricsRegistry reg;
  std::uint64_t hits = 0;
  reg.add_counter("test.hits", {"test", 3}, &hits);
  hits = 41;
  hits++;
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricKind::kCounter);
  EXPECT_EQ(samples[0].name, "test.hits");
  EXPECT_EQ(samples[0].labels.component, "test");
  EXPECT_EQ(samples[0].labels.node, 3);
  EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
}

TEST(Metrics, CounterFnAndGaugeArePullBased) {
  MetricsRegistry reg;
  std::uint64_t pulls = 0;
  reg.add_counter_fn("test.pulls", {}, [&] { return ++pulls; });
  double level = 0.25;
  reg.add_gauge("test.level", {}, [&] { return level; });
  auto samples = reg.snapshot();
  EXPECT_DOUBLE_EQ(find_sample(samples, "test.pulls")->value, 1.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, "test.level")->value, 0.25);
  level = 0.75;
  samples = reg.snapshot();
  EXPECT_DOUBLE_EQ(find_sample(samples, "test.pulls")->value, 2.0);
  EXPECT_DOUBLE_EQ(find_sample(samples, "test.level")->value, 0.75);
}

TEST(Metrics, SnapshotSortedByNameComponentNode) {
  MetricsRegistry reg;
  std::uint64_t v = 0;
  reg.add_counter("b.metric", {"x", 2}, &v);
  reg.add_counter("a.metric", {"x", -1}, &v);
  reg.add_counter("b.metric", {"x", 1}, &v);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.metric");
  EXPECT_EQ(samples[1].labels.node, 1);
  EXPECT_EQ(samples[2].labels.node, 2);
}

TEST(Metrics, GroupUnregistersOnDestruction) {
  MetricsRegistry reg;
  std::uint64_t v = 7;
  {
    MetricGroup group{reg};
    group.set_labels("scoped", 5);
    group.counter("test.scoped", &v);
    group.gauge("test.scoped_gauge", [] { return 1.0; });
    group.histogram("test.scoped_hist", {1.0, 2.0});
    EXPECT_EQ(reg.size(), 3u);
  }
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

// Groups torn down in random order, with registrations in between, leave
// exactly the survivors: size() and a snapshot that match, element for
// element, a registry that only ever held them, registered in the same
// order (ties in the snapshot's (name, component, node) order included).
TEST(Metrics, GroupsRemovedInRandomOrderLeaveExactlyTheSurvivors) {
  struct Registration {
    std::size_t group;
    std::string name;
    std::int64_t node;
    std::uint64_t* value;
  };
  // Each metric reads its own value, so tied samples stay distinguishable.
  std::vector<std::uint64_t> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  std::size_t used = 0;
  MetricsRegistry reg;
  std::vector<std::unique_ptr<MetricGroup>> groups;
  std::vector<Registration> registered;  // registration order
  const auto add_group = [&] {
    const std::size_t g = groups.size();
    auto group = std::make_unique<MetricGroup>(reg);
    const auto node = static_cast<std::int64_t>(g % 3);  // groups share labels
    group->set_labels("test", node);
    for (std::size_t k = 0; k <= g % 4; ++k) {
      const std::string name = k % 2 == 0 ? "test.even" : "test.odd";
      group->counter(name, &values[used]);
      registered.push_back({g, name, node, &values[used]});
      used++;
    }
    groups.push_back(std::move(group));
  };
  const std::size_t initial = 60;
  for (std::size_t g = 0; g < initial; ++g) add_group();
  std::vector<std::size_t> order(initial);
  for (std::size_t i = 0; i < initial; ++i) order[i] = i;
  Rng rng(11);
  for (std::size_t i = initial - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }

  std::set<std::size_t> removed;
  for (std::size_t step = 0; step < initial; ++step) {
    groups[order[step]].reset();
    removed.insert(order[step]);
    if (step % 10 == 9) add_group();
    MetricsRegistry survivors;
    for (const Registration& r : registered) {
      if (removed.count(r.group) == 0) survivors.add_counter(r.name, {"test", r.node}, r.value);
    }
    ASSERT_EQ(reg.size(), survivors.size()) << "step " << step;
    const auto got = reg.snapshot();
    const auto want = survivors.snapshot();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, want[i].name) << "step " << step << " row " << i;
      EXPECT_EQ(got[i].labels.node, want[i].labels.node) << "step " << step << " row " << i;
      EXPECT_EQ(got[i].value, want[i].value) << "step " << step << " row " << i;
    }
  }
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  Histogram h{{1.0, 5.0, 10.0}};
  h.observe(0.5);   // bucket 0 (<=1)
  h.observe(1.0);   // bucket 0 (inclusive upper edge)
  h.observe(3.0);   // bucket 1
  h.observe(100.0); // +inf bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.counts()[0], 0u);
}

TEST(Metrics, JsonlEscapesAndRendersHistograms) {
  MetricsRegistry reg;
  std::uint64_t v = 3;
  reg.add_counter("test.weird", {"comp\"quote\\slash\n", 1}, &v);
  Histogram* h = reg.add_histogram("test.hist", {}, {1.0, 2.0});
  h->observe(1.5);
  std::ostringstream out;
  reg.write_jsonl(out);
  const std::string text = out.str();
  // The component label must arrive escaped, never raw.
  EXPECT_NE(text.find("comp\\\"quote\\\\slash\\n"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"le\":\"inf\""), std::string::npos);
  // One object per line, every line closes its braces.
  std::istringstream lines{text};
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    count++;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_EQ(count, 2);
}

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string_view{"\x01", 1}), "\\u0001");
  EXPECT_EQ(obs::json_number(3.0), "3");
  EXPECT_EQ(obs::json_number(0.0 / 0.0), "null");
  obs::JsonObject o;
  o.field("s", "x\"y").field("n", 2).field("b", true);
  EXPECT_EQ(o.str(), "{\"s\":\"x\\\"y\",\"n\":2,\"b\":true}");
}

TEST(Trace, RingBufferWrapsAndKeepsNewest) {
  Tracer tracer{4};
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.at = i * 1000;
    ev.component = "t";
    ev.name = "e" + std::to_string(i);
    tracer.record(std::move(ev));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);  // wraparound is detectable
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, EventsStampVirtualTime) {
  Tracer tracer{16};
  sim::Simulator sim{1};  // binds the global sim clock
  sim.schedule_at(duration::millis(250),
                  [&] { tracer.event("test", "tick", 7, {{"k", "v"}}); });
  sim.run_until(duration::seconds(1));
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, duration::millis(250));
  EXPECT_EQ(events[0].node, 7);
  EXPECT_FALSE(events[0].is_span());
  ASSERT_EQ(events[0].kv.size(), 1u);
  EXPECT_EQ(events[0].kv[0].first, "k");
}

TEST(Trace, SpanMeasuresElapsedVirtualTime) {
  Tracer tracer{16};
  sim::Simulator sim{1};
  sim.schedule_at(0, [&] {
    auto span = std::make_shared<obs::SpanScope>("test", "work", -1, tracer);
    sim.schedule_at(duration::millis(300), [span] {});  // destroyed at +300ms
  });
  sim.run_until(duration::seconds(1));
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].is_span());
  EXPECT_EQ(events[0].at, 0);
  EXPECT_EQ(events[0].duration, duration::millis(300));
}

TEST(Trace, JsonlRoundTripShape) {
  Tracer tracer{8};
  TraceEvent ev;
  ev.at = 1'500'000;
  ev.duration = 2000;
  ev.component = "milan.engine";
  ev.name = "replan";
  ev.kv = {{"feasible", "true"}};
  tracer.record(std::move(ev));
  std::ostringstream out;
  tracer.write_jsonl(out);
  EXPECT_NE(out.str().find("\"t_us\":1500000"), std::string::npos);
  EXPECT_NE(out.str().find("\"dur_us\":2000"), std::string::npos);
  EXPECT_NE(out.str().find("\"feasible\":\"true\""), std::string::npos);
}

TEST(Trace, LogSinkForwardsRecords) {
  Tracer tracer{8};
  Logger::instance().set_sink(obs::trace_log_sink(tracer));
  Logger::instance().set_level(LogLevel::kInfo);
  NDSM_INFO("obs_test", "hello sink");
  Logger::instance().set_sink({});  // restore stderr default
  Logger::instance().set_level(LogLevel::kWarn);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "log");
  EXPECT_EQ(events[0].component, "obs_test");
}

// A family is one registration that exports a row per node: size()
// counts it once, snapshot() samples every row under its node label, and
// the group that registered it removes all of its rows.
TEST(Metrics, FamilyExportsOneRowPerNode) {
  MetricsRegistry reg;
  std::vector<double> load{0.5, 1.5, 2.5};
  {
    MetricGroup g(reg);
    g.set_labels("test.family");
    g.family("test.load", MetricKind::kGauge, [&load] { return load.size(); },
             [&load](std::size_t i) { return load[i]; });
    EXPECT_EQ(reg.size(), 1u);
    load.push_back(3.5);
    const auto samples = reg.snapshot();
    ASSERT_EQ(samples.size(), 4u);
    for (std::int64_t node = 0; node < 4; ++node) {
      const MetricSample* s = find_sample(samples, "test.load", node);
      ASSERT_NE(s, nullptr) << node;
      EXPECT_EQ(s->kind, MetricKind::kGauge);
      EXPECT_EQ(s->labels.component, "test.family");
      EXPECT_DOUBLE_EQ(s->value, load[static_cast<std::size_t>(node)]);
    }
  }
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

// A World's per-node rows are families: its registrations do not grow
// with its node count, and its export still holds a row per node.
TEST(Metrics, WorldRegistrationsDoNotGrowWithNodes) {
  const auto registered_with = [](std::size_t nodes) {
    const std::size_t before = MetricsRegistry::instance().size();
    sim::Simulator sim{1};
    net::World world{sim};
    for (std::size_t i = 0; i < nodes; ++i) (void)world.add_node({static_cast<double>(i), 0});
    std::size_t rows = 0;
    for (const MetricSample& s : MetricsRegistry::instance().snapshot()) {
      rows += s.name == "net.world.node.bytes_received" ? 1 : 0;
    }
    EXPECT_EQ(rows, nodes);
    return MetricsRegistry::instance().size() - before;
  };
  EXPECT_EQ(registered_with(1000), registered_with(1));
}

// Migration contract: the legacy accessors (world.stats(), engine.stats(),
// transport.stats()) and the registry views must agree exactly.
TEST(MetricsMigration, WorldStatsMatchRegistryViews) {
  testing::Lan lan{3};
  lan.transport(0).send(lan.nodes[2], transport::ports::kApp, Bytes(200, 0x1), nullptr);
  lan.sim.run_until(duration::seconds(2));

  const auto& stats = lan.world.stats();
  ASSERT_GT(stats.frames_sent, 0u);
  const auto samples = MetricsRegistry::instance().snapshot();
  const auto* sent = find_sample(samples, "net.world.frames_sent");
  const auto* delivered = find_sample(samples, "net.world.frames_delivered");
  const auto* bytes = find_sample(samples, "net.world.bytes_on_wire");
  ASSERT_NE(sent, nullptr);
  ASSERT_NE(delivered, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(sent->value, static_cast<double>(stats.frames_sent));
  EXPECT_DOUBLE_EQ(delivered->value, static_cast<double>(stats.frames_delivered));
  EXPECT_DOUBLE_EQ(bytes->value, static_cast<double>(stats.bytes_on_wire));

  // Per-node counters agree with the per-node stats accessors.
  const auto node0 = static_cast<std::int64_t>(lan.nodes[0].value());
  const auto* node_sent = find_sample(samples, "net.world.node.frames_sent", node0);
  ASSERT_NE(node_sent, nullptr);
  EXPECT_DOUBLE_EQ(node_sent->value,
                   static_cast<double>(lan.world.stats(lan.nodes[0]).frames_sent));

  // Transport counters ride the same registry.
  const auto& tstats = lan.transport(0).stats();
  bool found_transport = false;
  for (const auto& s : samples) {
    if (s.name == "transport.reliable.messages_sent" &&
        s.value == static_cast<double>(tstats.messages_sent) && tstats.messages_sent > 0) {
      found_transport = true;
    }
  }
  EXPECT_TRUE(found_transport);
}

TEST(MetricsMigration, EngineStatsMatchRegistryViews) {
  testing::Lan lan{3};
  milan::ApplicationSpec app;
  app.variables = {"temperature"};
  app.states["on"] = {{"temperature", 0.8}};
  app.initial_state = "on";
  std::vector<milan::Component> components;
  milan::Component c;
  c.id = ComponentId{1};
  c.node = lan.nodes[1];
  c.qos["temperature"] = 0.9;
  c.sample_period = duration::millis(200);
  components.push_back(c);
  milan::MilanEngine engine{
      lan.world,          lan.nodes[0],
      lan.table,          [&](NodeId n) { return node::router_of(lan.runtimes, n); },
      app,                components};
  engine.start();
  lan.sim.run_until(duration::seconds(3));

  const auto& stats = engine.stats();
  ASSERT_GT(stats.plans, 0u);
  ASSERT_GT(stats.samples_delivered, 0u);
  const auto sink = static_cast<std::int64_t>(lan.nodes[0].value());
  const auto samples = MetricsRegistry::instance().snapshot();
  EXPECT_DOUBLE_EQ(find_sample(samples, "milan.engine.plans", sink)->value,
                   static_cast<double>(stats.plans));
  EXPECT_DOUBLE_EQ(find_sample(samples, "milan.engine.samples_delivered", sink)->value,
                   static_cast<double>(stats.samples_delivered));
  EXPECT_DOUBLE_EQ(find_sample(samples, "milan.engine.feasible", sink)->value, 1.0);
  const auto* benefit = find_sample(samples, "milan.engine.plan_benefit", sink);
  ASSERT_NE(benefit, nullptr);
  EXPECT_GE(benefit->value, 0.8);

  // Replans leave spans on the tracer with sim-time stamps.
  const auto events = Tracer::instance().snapshot();
  const auto replan = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.component == "milan.engine" && e.name == "replan";
  });
  ASSERT_NE(replan, events.end());
  EXPECT_TRUE(replan->is_span());
}

// --- causal tracing -----------------------------------------------------------

TEST(Trace, RingFillCountsDropped) {
  Tracer tracer{4};
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.at = i;
    ev.component = "t";
    ev.name = "e";
    tracer.record(std::move(ev));
  }
  // 10 recorded into a 4-slot ring: exactly 6 were overwritten, no more.
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.size(), 4u);
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);

  // The default instance exports the drop count as obs.tracer.dropped.
  auto& shared = Tracer::instance();
  shared.clear();
  const std::size_t cap = shared.capacity();
  for (std::size_t i = 0; i < cap + 3; ++i) shared.event("t", "fill");
  EXPECT_EQ(shared.dropped(), 3u);
  const auto samples = MetricsRegistry::instance().snapshot();
  const auto* dropped = find_sample(samples, "obs.tracer.dropped");
  const auto* recorded = find_sample(samples, "obs.tracer.recorded");
  ASSERT_NE(dropped, nullptr);
  ASSERT_NE(recorded, nullptr);
  EXPECT_DOUBLE_EQ(dropped->value, 3.0);
  EXPECT_DOUBLE_EQ(recorded->value, static_cast<double>(cap + 3));
  shared.clear();
}

TEST(Metrics, HistogramQuantileInterpolates) {
  // 1..100 into decade buckets: 10 samples per bucket, uniform, so linear
  // interpolation lands exactly on the requested percentile.
  Histogram h{{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}};
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);

  // Overflow bucket clamps to the last finite bound; empty histogram is 0.
  Histogram overflow{{1.0}};
  overflow.observe(50.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 1.0);
  Histogram empty{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // write_table renders the three canonical percentiles per histogram row.
  MetricsRegistry reg;
  Histogram* rh = reg.add_histogram("test.latency", {}, {10, 20, 30});
  rh->observe(15.0);
  std::ostringstream table;
  reg.write_table(table);
  EXPECT_NE(table.str().find("p50="), std::string::npos);
  EXPECT_NE(table.str().find("p95="), std::string::npos);
  EXPECT_NE(table.str().find("p99="), std::string::npos);
}

TEST(Trace, PerfettoExportShape) {
  Tracer tracer{16};
  TraceEvent span;
  span.at = 1000;
  span.duration = 500;
  span.component = "transport.reliable";
  span.name = "message";
  span.node = 3;
  span.trace_id = 42;
  span.span_id = 42;
  span.kv = {{"msg_id", "1"}};
  tracer.record(std::move(span));
  TraceEvent child;
  child.at = 1400;
  child.component = "transport.reliable";
  child.name = "deliver";
  child.node = 7;
  child.trace_id = 42;
  child.span_id = 99;
  child.parent_span = 42;
  tracer.record(std::move(child));
  TraceEvent plain;
  plain.at = 2000;
  plain.duration = 10;
  plain.component = "milan.engine";
  plain.name = "replan";
  tracer.record(std::move(plain));

  std::ostringstream out;
  tracer.write_perfetto(out);
  const std::string text = out.str();
  // Top-level shape Perfetto accepts.
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("]}"), std::string::npos);
  // Process/thread metadata for both nodes.
  EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"node 3\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"node 7\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"thread_name\""), std::string::npos);
  // The traced span becomes a nestable async pair, the untraced one "X",
  // the instant "i", and the parent link a flow arrow (s at parent, f at
  // child).
  EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_id\":\"42\""), std::string::npos);
  // Balanced JSON braces — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
}

TEST(Trace, WireContextLinksCrossNodeSpans) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  testing::Lan lan{3};
  lan.transport(0).send(lan.nodes[2], transport::ports::kApp, Bytes(64, 0x2), nullptr);
  lan.sim.run_until(duration::seconds(2));

  const auto events = tracer.snapshot();
  const auto sender = static_cast<std::int64_t>(lan.nodes[0].value());
  const auto receiver = static_cast<std::int64_t>(lan.nodes[2].value());
  const auto msg = std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == "message" && e.node == sender;
  });
  ASSERT_NE(msg, events.end());
  EXPECT_TRUE(msg->is_span());
  // No caller scope: the message roots its own trace (trace id == span id).
  EXPECT_NE(msg->trace_id, 0u);
  EXPECT_EQ(msg->trace_id, msg->span_id);

  // The receiver's deliver event continues the same trace, parented on the
  // sender's wire span — cross-node causality without any shared state.
  const auto del = std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == "deliver" && e.node == receiver;
  });
  ASSERT_NE(del, events.end());
  EXPECT_EQ(del->trace_id, msg->trace_id);
  EXPECT_EQ(del->parent_span, msg->span_id);
  EXPECT_NE(del->span_id, msg->span_id);  // delivery draws its own span id
  tracer.clear();
}

TEST(Trace, IdsAreIdenticalAcrossTwinRuns) {
  // The determinism contract for ids themselves: same seed, same workload
  // => byte-identical (name, trace, span, parent) streams.
  auto run = [] {
    auto& tracer = Tracer::instance();
    tracer.clear();
    testing::Lan lan{3};
    lan.transport(0).send(lan.nodes[1], transport::ports::kApp, Bytes(128, 0x5), nullptr);
    lan.transport(2).send(lan.nodes[0], transport::ports::kApp, Bytes(16, 0x6), nullptr);
    lan.sim.run_until(duration::seconds(2));
    std::ostringstream out;
    for (const auto& e : tracer.snapshot()) {
      out << e.name << ':' << e.trace_id << ':' << e.span_id << ':' << e.parent_span << '\n';
    }
    tracer.clear();
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Trace, CrashRestartEpochsShareOneCausalGraph) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  testing::Lan lan{2};
  lan.transport(0).send(lan.nodes[1], transport::ports::kApp, Bytes(32, 0x1), nullptr);
  lan.sim.run_until(duration::seconds(1));

  const auto pre_events = tracer.snapshot();
  const auto pre = std::find_if(pre_events.begin(), pre_events.end(), [](const TraceEvent& e) {
    return e.name == "message";
  });
  ASSERT_NE(pre, pre_events.end());
  const std::uint64_t pre_trace = pre->trace_id;
  const std::uint64_t pre_span = pre->span_id;
  const std::uint64_t pre_epoch = lan.transport(0).trace_ids().epoch();

  lan.sim.schedule_at(duration::seconds(2), [&] { lan.runtime(0).crash(); });
  lan.sim.schedule_at(duration::seconds(3), [&] { lan.runtime(0).restart(); });
  lan.sim.schedule_at(duration::seconds(4), [&] {
    // Continue the pre-crash trace across the restart: the fresh
    // incarnation allocates from a new epoch but joins the same graph.
    const obs::ScopedTrace scope({pre_trace, pre_span, 0});
    lan.transport(0).send(lan.nodes[1], transport::ports::kApp, Bytes(32, 0x2), nullptr);
  });
  lan.sim.run_until(duration::seconds(6));

  EXPECT_GT(lan.transport(0).trace_ids().epoch(), pre_epoch);
  const auto events = tracer.snapshot();
  const auto post = std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == "message" && e.span_id != pre_span;
  });
  ASSERT_NE(post, events.end());
  // Same causal graph, new-epoch span ids, explicit parent link across the
  // crash.
  EXPECT_EQ(post->trace_id, pre_trace);
  EXPECT_EQ(post->parent_span, pre_span);
  EXPECT_NE(post->span_id, pre_span);

  // And its delivery on the surviving node is parented on the *new* span.
  const auto del = std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == "deliver" && e.parent_span == post->span_id;
  });
  ASSERT_NE(del, events.end());
  EXPECT_EQ(del->trace_id, pre_trace);
  tracer.clear();
}

TEST(Trace, StaleEpochFramesDropAsAnnotatedEvents) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  testing::Lan lan{2};
  // Raise node 1's epoch window for node 0 above zero: deliver one message,
  // crash/restart node 0 (new epoch > 0), deliver another.
  lan.transport(0).send(lan.nodes[1], transport::ports::kApp, Bytes(8, 0x1), nullptr);
  lan.sim.run_until(duration::seconds(1));
  lan.sim.schedule_at(duration::seconds(2), [&] { lan.runtime(0).crash(); });
  lan.sim.schedule_at(duration::seconds(3), [&] { lan.runtime(0).restart(); });
  lan.sim.schedule_at(duration::seconds(4), [&] {
    lan.transport(0).send(lan.nodes[1], transport::ports::kApp, Bytes(8, 0x2), nullptr);
  });
  lan.sim.run_until(duration::seconds(5));
  ASSERT_EQ(lan.transport(1).stats().messages_delivered, 2u);

  // A delayed pre-restart fragment (epoch 0, the seed incarnation's) now
  // arrives: it must drop, and the drop must carry the frame's trace
  // context so the pre-crash trace visibly *ends* instead of vanishing.
  // Both ghost frames are sent under the ghost context, which their
  // routing headers, the frames' only context, carry.
  obs::TraceContext ghost;
  ghost.trace_id = 0xDEAD;
  ghost.span_id = 0xBEEF;
  lan.sim.schedule_at(duration::seconds(5) + 1, [&] {
    const obs::ScopedTrace scope(ghost);
    serialize::Writer w;
    w.u8(1);  // FrameKind::kFragment
    w.varint(0);  // epoch 0: strictly older than the restarted incarnation
    w.varint(77);
    w.u16(transport::ports::kApp);
    w.varint(0);
    w.varint(1);
    w.bytes(Bytes(8, 0x3));
    lan.router(0).send(lan.nodes[1], routing::Proto::kTransport, std::move(w).take());
  });
  // An ack echoing a never-seen epoch is equally stale on the sender side.
  lan.sim.schedule_at(duration::seconds(5) + 2, [&] {
    const obs::ScopedTrace scope(ghost);
    serialize::Writer w;
    w.u8(2);  // FrameKind::kAck
    w.varint(999);
    w.varint(1);
    w.varint(0);
    lan.router(0).send(lan.nodes[1], routing::Proto::kTransport, std::move(w).take());
  });
  lan.sim.run_until(duration::seconds(7));

  EXPECT_EQ(lan.transport(1).stats().stale_epoch_dropped, 2u);
  EXPECT_EQ(lan.transport(1).stats().messages_delivered, 2u);  // ghost not delivered
  const auto events = tracer.snapshot();
  const auto drops = std::count_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == "stale_epoch_drop" && e.trace_id == ghost.trace_id &&
           e.parent_span == ghost.span_id;
  });
  EXPECT_EQ(drops, 2);
  tracer.clear();
}

TEST(Trace, WireCodecRoundTripsAndToleratesLegacyFrames) {
  obs::TraceContext ctx;
  ctx.trace_id = 0x1122334455667788ULL;
  ctx.span_id = 0x99AABBCCDDEEFF00ULL;
  ctx.hops = 7;
  serialize::Writer w;
  w.u32(41);
  obs::encode_trace(w, ctx);
  const Bytes frame = std::move(w).take();
  serialize::Reader r{frame};
  ASSERT_EQ(r.u32().value(), 41u);
  EXPECT_EQ(obs::decode_trace(r), ctx);

  // Invalid context encodes as a single absent-flag byte.
  serialize::Writer w2;
  obs::encode_trace(w2, obs::TraceContext{});
  const Bytes absent = std::move(w2).take();
  EXPECT_EQ(absent.size(), 1u);
  serialize::Reader r2{absent};
  EXPECT_FALSE(obs::decode_trace(r2).valid());

  // Legacy frame with no trailer at all: exhausted reader, no context.
  serialize::Writer w3;
  w3.u32(41);
  const Bytes legacy = std::move(w3).take();
  serialize::Reader r3{legacy};
  ASSERT_EQ(r3.u32().value(), 41u);
  EXPECT_FALSE(obs::decode_trace(r3).valid());

  // Truncated v1 block: flags promise a context the bytes cannot deliver.
  const Bytes truncated{0x01, 0x02};
  serialize::Reader r4{truncated};
  EXPECT_FALSE(obs::decode_trace(r4).valid());
}

TEST(Trace, IdAllocatorNeverReturnsZeroAndSeparatesEpochs) {
  obs::TraceIdAllocator a{NodeId{5}, 100};
  obs::TraceIdAllocator b{NodeId{5}, 101};  // same node, later incarnation
  obs::TraceIdAllocator c{NodeId{6}, 100};  // different node, same epoch
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto ids = {a.next(), b.next(), c.next()};
    for (const std::uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second) << "id collision across allocators";
    }
  }
  // Same (node, epoch) => same deterministic stream.
  obs::TraceIdAllocator a2{NodeId{5}, 100};
  obs::TraceIdAllocator a3{NodeId{5}, 100};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a2.next(), a3.next());
  }
  // And the same ids in every build: trace exports are compared across
  // versions.
  obs::TraceIdAllocator a4{NodeId{5}, 100};
  EXPECT_EQ(a4.next(), 0x4f898f520fa4b2c3ULL);
  EXPECT_EQ(a4.next(), 0xf2993a36eed6d460ULL);
}

TEST(Flight, RecordDumpsRingWithHeader) {
  Tracer tracer{8};
  sim::Simulator sim{1};
  sim.schedule_at(duration::millis(5), [&] {
    tracer.event("test", "before_disaster", 2, {{"k", "v"}});
  });
  sim.run_until(duration::millis(10));
  const std::string path = obs::flight_record("obs-test", "unit test dump", tracer);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"flightrec\""), std::string::npos);
  EXPECT_NE(header.find("unit test dump"), std::string::npos);
  std::string body;
  ASSERT_TRUE(std::getline(in, body));
  EXPECT_NE(body.find("before_disaster"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ndsm
