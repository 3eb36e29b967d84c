// field-sim: a 1,024-node (32x32) lossless 802.11 lattice, one
// node::Runtime per node running geographic routing under the reliable
// transport. Once per simulated second, at a seeded phase, every node
// sends a 32-256 B reliable message to a random node at most 8 lattice
// steps away on each axis (GeoRouter drops packets after kDefaultTtl
// hops, so unbounded destinations would make corner-to-corner sends
// fail). Multi-hop unicast: routing forwards, the transport fragments and
// acks, the wireless grid answers range queries, and RTO timers are armed
// and cancelled. It is also the only workload with enough Runtimes for
// teardown (MetricGroup removal from the process-wide registry) to show.
//
// Op: one message acknowledged end to end.

#include <memory>
#include <vector>

#include "common.hpp"
#include "net/faults.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "node/runtime.hpp"
#include "obs/trace.hpp"
#include "routing/geographic.hpp"
#include "sim/simulator.hpp"
#include "transport/ports.hpp"

namespace perfbench {
namespace {

using namespace ndsm;

constexpr int kSide = 32;
constexpr double kSpacingM = 60.0;  // 100 m radio range: 8 lattice neighbours
constexpr int kMaxOffset = 8;       // destination box, lattice steps per axis
constexpr Time kSendPeriod = duration::seconds(1);
constexpr Time kStep = duration::millis(50);  // latency_* sample: one step
constexpr Time kHelloPeriod = duration::seconds(2);
constexpr int kWarmSimSeconds = 5;   // boots, then hellos fill the neighbour tables
constexpr int kWarmTrafficPeriods = 4;  // then traffic fills per-peer state
// Work per run: simulated seconds of traffic per --seconds, sized so the
// timed phase lasts about --seconds on a 4-vCPU x86-64 VM.
constexpr double kSimSecondsPerSecond = 18.0;
constexpr int kSetups = 5;
// Medium-access delay: every frame waits a seeded 1-100 us before it
// lands, as 802.11 backoff would. Without it the network has no queueing,
// so every multi-fragment message over the same hop count takes the same
// simulated time and the latency tail is a handful of identical values.
constexpr Time kAccessJitter = duration::micros(100);

class Field {
 public:
  Field(std::uint64_t seed, bool traced)
      : sim_(seed * 0x9e3779b97f4a7c15ULL + 3),
        world_(sim_),
        access_(world_, seed ^ 0xacce55),
        rng_(input_rng(seed, 0xf1e1d)) {
    access_.jitter(1.0, kAccessJitter);
    const MediumId medium = world_.add_medium(net::wifi80211(100.0, 0.0));
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kGeographic;
    cfg.geo_hello_period = kHelloPeriod;
    if (traced) {
      cfg.router_factory = [](net::Stack& s) -> std::unique_ptr<routing::Router> {
        return std::make_unique<TimedRouter>(
            s, std::make_unique<routing::GeoRouter>(s, kHelloPeriod));
      };
    }
    runtimes_.resize(static_cast<std::size_t>(kSide * kSide));
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        const NodeId id = world_.add_node(Vec2{x * kSpacingM, y * kSpacingM});
        world_.attach(id, medium);
        stacks_.push_back(std::make_unique<net::WorldStack>(world_, id));
        if (traced) timed_.push_back(std::make_unique<TimedStack>(*stacks_.back()));
        // Nodes boot at seeded instants across the first hello period, so
        // their hellos do not all fall in the same 400 ms of every period.
        const std::size_t i = stacks_.size() - 1;
        const auto boot = static_cast<Time>(uniform(rng_, 0, kHelloPeriod - 1));
        sim_.schedule_at(boot, [this, i, cfg] {
          runtimes_[i] = std::make_unique<node::Runtime>(stack(i), cfg);
          runtimes_[i]->transport().set_receiver(
              transport::ports::kApp, [this](NodeId, const Bytes&) { app_deliveries_++; });
        });
      }
    }
    sim_.run_until(duration::seconds(kWarmSimSeconds));
    start_traffic(kWarmTrafficPeriods);
    sim_.run_until(sim_.now() + (kWarmTrafficPeriods + 2) * kSendPeriod);
    warm_unacked_ = sent - acked;
    sent = acked = failed = app_deliveries_ = 0;
    ack_latency.clear();
  }

  net::Stack& stack(std::size_t i) {
    return timed_.empty() ? static_cast<net::Stack&>(*stacks_[i]) : *timed_[i];
  }
  sim::Simulator& sim() { return sim_; }
  net::World& world() { return world_; }
  std::vector<std::unique_ptr<node::Runtime>>& runtimes() { return runtimes_; }

  // Arm `periods` sends per node, one per kSendPeriod at a seeded phase.
  void start_traffic(int periods) {
    for (std::size_t i = 0; i < runtimes_.size(); ++i) {
      const auto phase = static_cast<Time>(uniform(rng_, 0, kSendPeriod - 1));
      stack(i).schedule_after(phase, [this, i, periods] { send_from(i, periods); });
    }
  }

  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  UsHistogram ack_latency{duration::seconds(1), duration::micros(100)};  // simulated send to ack
  [[nodiscard]] std::uint64_t app_deliveries() const { return app_deliveries_; }
  [[nodiscard]] std::uint64_t warm_unacked() const { return warm_unacked_; }

 private:
  void send_from(std::size_t i, int remaining) {
    const int x = static_cast<int>(i) % kSide;
    const int y = static_cast<int>(i) / kSide;
    int dx = 0;
    int dy = 0;
    while (dx == 0 && dy == 0) {
      dx = static_cast<int>(uniform(rng_, 0, 2 * kMaxOffset)) - kMaxOffset;
      dy = static_cast<int>(uniform(rng_, 0, 2 * kMaxOffset)) - kMaxOffset;
      const int nx = x + dx;
      const int ny = y + dy;
      if (nx < 0 || ny < 0 || nx >= kSide || ny >= kSide) dx = dy = 0;
    }
    const std::size_t dst = static_cast<std::size_t>((y + dy) * kSide + (x + dx));
    Bytes payload(uniform(rng_, 32, 256), static_cast<std::uint8_t>(sent));
    const Time t0 = sim_.now();
    sent++;
    const Status s = runtimes_[i]->transport().send(
        runtimes_[dst]->id(), transport::ports::kApp, std::move(payload),
        [this, t0](Status st) {
          if (st.is_ok()) {
            acked++;
            ack_latency.add(sim_.now() - t0);
          } else {
            failed++;
          }
        });
    if (!s.is_ok()) failed++;
    if (remaining > 1) {
      stack(i).schedule_after(kSendPeriod, [this, i, remaining] { send_from(i, remaining - 1); });
    }
  }

  // Destroyed bottom-up: runtimes, then the stacks they use, then the sim.
  sim::Simulator sim_;
  net::World world_;
  net::FaultPlan access_;
  InputRng rng_;
  std::uint64_t app_deliveries_ = 0;
  std::uint64_t warm_unacked_ = 0;
  std::vector<std::unique_ptr<net::WorldStack>> stacks_;
  std::vector<std::unique_ptr<TimedStack>> timed_;
  std::vector<std::unique_ptr<node::Runtime>> runtimes_;
};

struct Totals {
  std::uint64_t events = 0;
  net::WorldStats world;
  routing::RouterStats routing;
  transport::TransportStats transport;
  std::uint64_t tracer_records = 0;

  static Totals of(Field& f) {
    Totals t;
    t.events = f.sim().executed_events();
    t.world = f.world().stats();
    for (auto& rt : f.runtimes()) {
      const routing::RouterStats& r = router_stats(rt->router());
      t.routing.data_forwarded += r.data_forwarded;
      t.routing.data_delivered += r.data_delivered;
      t.routing.control_bytes += r.control_bytes;
      t.routing.drops += r.drops;
      const transport::TransportStats& tr = rt->transport().stats();
      t.transport.fragments_sent += tr.fragments_sent;
      t.transport.acks_sent += tr.acks_sent;
      t.transport.retransmissions += tr.retransmissions;
      t.transport.payload_bytes_delivered += tr.payload_bytes_delivered;
      t.transport.malformed_dropped += tr.malformed_dropped;
    }
    t.tracer_records = obs::Tracer::instance().recorded();
    return t;
  }
};

struct Phase {
  Blocks blocks;
  std::vector<double> step_ms;  // processor time per simulated step
  Totals before;
  Totals after;
  std::uint64_t digest = 0;
};

Phase run_timed(Field& f, int periods, bool traced) {
  Phase ph;
  ph.before = Totals::of(f);
  const std::uint64_t expected = f.runtimes().size() * static_cast<std::uint64_t>(periods);
  const Time start = f.sim().now();
  const auto steps = static_cast<std::size_t>(periods * kSendPeriod / kStep);
  const std::size_t per_block = std::max<std::size_t>(1, steps / Blocks::kCount);
  const Time limit = start + periods * kSendPeriod + duration::seconds(30);
  f.start_traffic(periods);
  ph.blocks.mark(0);
  // Traffic steps, then drain steps until every message completed; the
  // drain joins the last block.
  for (std::size_t k = 1;; ++k) {
    const Time t = start + static_cast<Time>(k) * kStep;
    const bool traffic = k <= steps;
    if (!traffic && (f.acked + f.failed >= expected || t > limit)) break;
    const std::int64_t s0 = thread_cpu_ns();
    maybe_span(traced, slot::kDrive, [&f, t] { f.sim().run_until(t); });
    ph.step_ms.push_back(static_cast<double>(thread_cpu_ns() - s0) / 1e6);
    if (traffic && k % per_block == 0 && k < steps) ph.blocks.mark(f.acked, ph.step_ms.size());
  }
  ph.blocks.mark(f.acked, ph.step_ms.size());
  ph.after = Totals::of(f);
  ph.digest = f.sim().digest();
  return ph;
}

void check_field(Field& f, const Phase& ph, int periods, Report& report) {
  const std::uint64_t expected = f.runtimes().size() * static_cast<std::uint64_t>(periods);
  report.check(f.warm_unacked() == 0, "field every warm-up message acked");
  report.check(f.sent == expected, "field messages sent == nodes x periods");
  report.check(f.acked == expected && f.failed == 0,
               "field every message acked (" + std::to_string(f.acked) + "/" +
                   std::to_string(expected) + ", failed " + std::to_string(f.failed) + ")");
  report.check(f.app_deliveries() == f.acked, "field kApp deliveries == acks (" +
                                                  std::to_string(f.app_deliveries()) + " vs " +
                                                  std::to_string(f.acked) + ")");
  report.check(ph.after.transport.malformed_dropped == 0, "field malformed_dropped == 0");
}

}  // namespace

Report run_field_sim(const Options& opt) {
  Report report;
  const int periods = work_share(opt, opt.seconds * kSimSecondsPerSecond);
  const std::uint64_t expected = static_cast<std::uint64_t>(kSide * kSide) * periods;
  report.attempted = expected;

  if (!opt.trace) {
    std::vector<double> setup;
    auto field = build_repeated<Field>(kSetups, setup, [&opt] {
      return std::make_unique<Field>(opt.seed, false);
    });
    const Phase ph = run_timed(*field, periods, false);
    check_field(*field, ph, periods, report);
    report.notes.push_back(ph.blocks.unscaled_note());
    const auto ops = static_cast<double>(field->acked);
    report.failed = expected - std::min(expected, field->acked);
    report.add("ops_per_s", ph.blocks.median_ops_per_s(), "1/s");
    report.add("cpu_us_per_op", ph.blocks.median_cpu_us_per_op(), "us");
    report.add("latency_p50_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.50), "ms");
    report.add("latency_p99_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.99), "ms");
    report.add("wire_bytes_per_op",
               ratio(static_cast<double>(ph.after.world.bytes_on_wire -
                                         ph.before.world.bytes_on_wire),
                     ops),
               "bytes");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  auto plain = std::make_unique<Field>(opt.seed, false);
  const Phase base = run_timed(*plain, periods, false);
  const double registered = static_cast<double>(obs::MetricsRegistry::instance().size());
  const double sim_p50 = plain->ack_latency.quantile_ms(0.50);
  const double sim_p99 = plain->ack_latency.quantile_ms(0.99);
  const double teardown = destroy_timed(plain);

  auto field = std::make_unique<Field>(opt.seed, true);
  std::vector<Bytes> frames;
  TimedStack::capture_routing(&frames);
  Profiler::instance().reset();
  const Phase ph = run_timed(*field, periods, true);
  TimedStack::capture_routing(nullptr);
  const Profiler& prof = Profiler::instance();
  report.notes.push_back("field-sim traced self-time shares:\n" + prof.shares());
  report.check(ph.digest == base.digest, "field traced digest == untraced digest");
  check_field(*field, ph, periods, report);
  report.failed = expected - std::min(expected, field->acked);

  const auto ops = static_cast<double>(field->acked);
  const auto events = static_cast<double>(ph.after.events - ph.before.events);
  const auto delivered =
      static_cast<double>(ph.after.world.frames_delivered - ph.before.world.frames_delivered);
  const auto wire =
      static_cast<double>(ph.after.world.bytes_on_wire - ph.before.world.bytes_on_wire);
  const SpanTotals& drive = prof.at(slot::kDrive);
  const SpanTotals& down = prof.at(slot::kDown);
  const SpanTotals& up_routing = prof.at(up_slot(net::Proto::kRouting));
  const SpanTotals& to_transport = prof.at(deliver_slot(net::Proto::kTransport));
  const CodecCost codec = time_routing_codec(frames);
  const routing::RouterStats& r0 = ph.before.routing;
  const routing::RouterStats& r1 = ph.after.routing;
  const transport::TransportStats& t0 = ph.before.transport;
  const transport::TransportStats& t1 = ph.after.transport;
  LayerMetrics lm;
  lm.set("sim_latency_p50_ms", sim_p50);
  lm.set("sim_latency_p99_ms", sim_p99);
  lm.set("sim.events_per_op", ratio(events, ops));
  lm.set("sim.self_ns_per_event", ratio(static_cast<double>(drive.self_ns), events));
  lm.set("net.world.deliveries_per_op", ratio(delivered, ops));
  lm.set("net.world.down_ns_per_frame",
         ratio(static_cast<double>(down.self_ns), static_cast<double>(down.count)));
  lm.set("routing.forwards_per_op",
         ratio(static_cast<double>(r1.data_forwarded - r0.data_forwarded), ops));
  lm.set("routing.up_self_ns_per_frame", ratio(static_cast<double>(up_routing.self_ns),
                                               static_cast<double>(up_routing.count)));
  lm.set("routing.delivered_share",
         ratio(static_cast<double>(r1.data_delivered - r0.data_delivered),
               static_cast<double>(up_routing.count)));
  lm.set("transport.frames_per_op",
         ratio(static_cast<double>((t1.fragments_sent + t1.acks_sent) -
                                   (t0.fragments_sent + t0.acks_sent)),
               ops));
  lm.set("transport.retransmissions_per_op",
         ratio(static_cast<double>(t1.retransmissions - t0.retransmissions), ops));
  lm.set("transport.up_self_ns_per_frame", ratio(static_cast<double>(to_transport.self_ns),
                                                 static_cast<double>(to_transport.count)));
  lm.set("transport.payload_share",
         ratio(static_cast<double>(t1.payload_bytes_delivered - t0.payload_bytes_delivered),
               wire));
  lm.set("serialize.routing_decode_ns", codec.decode_ns);
  lm.set("serialize.routing_encode_ns", codec.encode_ns);
  lm.set("obs.tracer_records_per_op",
         ratio(static_cast<double>(ph.after.tracer_records - ph.before.tracer_records), ops));
  lm.set("obs.registered_metrics", registered);
  lm.set("node.teardown_s", teardown);
  lm.set("trace_overhead_ratio", ratio(ph.blocks.scaled_wall_s(), base.blocks.scaled_wall_s()));
  lm.set("net.world.grid_candidates_per_delivery",
         ratio(static_cast<double>(ph.after.world.grid_candidates -
                                   ph.before.world.grid_candidates),
               delivered));
  lm.set("routing.control_bytes_per_op",
         ratio(static_cast<double>(r1.control_bytes - r0.control_bytes), ops));
  lm.emit(report);
  return report;
}

}  // namespace perfbench
