// scale-sim: the bench_scale broadcast field on net::ShardedWorld — 100k
// nodes on a 10 m lattice with 25 m radio range, 8 shards, 1 worker,
// 64 B broadcasts. Each node re-arms its own next broadcast one period
// after the last (at a seeded phase), so the event heap stays O(nodes).
// It is the only workload that reaches sim::ShardedEngine and
// net::ShardedWorld, it measures per-event cost with no middleware above
// the link, and its working set exceeds the CPU caches.
//
// Op: one frame delivery. The benchmark's receivers only count
// deliveries per node, for the lattice check; they keep no other state.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common.hpp"
#include "net/link_spec.hpp"
#include "net/sharded_world.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace ndsm;

constexpr std::size_t kNodes = 100'000;
constexpr double kSpacingM = 10.0;
constexpr double kRangeM = 25.0;
constexpr int kReach = 2;  // lattice steps that can be in range per axis
constexpr std::size_t kShards = 8;
constexpr Time kPeriod = duration::millis(10);
constexpr Time kStep = duration::micros(80);  // latency_* sample: one step
constexpr std::size_t kPayloadBytes = 64;
constexpr int kWarmPeriods = 1;
// Work per run: broadcast periods per --seconds, sized so the timed phase
// lasts about --seconds on a 4-vCPU x86-64 VM.
constexpr double kPeriodsPerSecond = 0.8;
constexpr int kSetups = 5;

[[nodiscard]] bool in_range(int dx, int dy) {
  const double d = std::hypot(dx * kSpacingM, dy * kSpacingM);
  return (dx != 0 || dy != 0) && d <= kRangeM;
}

class Scale {
 public:
  Scale(std::uint64_t seed, std::size_t workers, bool traced)
      : world_({.shards = kShards, .workers = workers, .seed = seed * 0x9e3779b97f4a7c15ULL + 5}),
        traced_(traced),
        side_(static_cast<int>(std::ceil(std::sqrt(static_cast<double>(kNodes))))),
        payload_(kPayloadBytes, 0xab),
        fires_(kNodes, 0),
        delivered_(kNodes, 0) {
    const MediumId medium = world_.add_medium(net::wifi80211(kRangeM, 0.0));
    InputRng rng = input_rng(seed, 0x5ca1e);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const NodeId id = world_.add_node({static_cast<double>(x_of(i)) * kSpacingM,
                                         static_cast<double>(y_of(i)) * kSpacingM});
      if (i == 0) first_id_ = id.value();
      if (id.value() != first_id_ + i) {
        std::fprintf(stderr, "perfbench: ShardedWorld node ids are not sequential\n");
        std::abort();
      }
      world_.attach(id, medium);
      world_.set_handler(id, [this, i](const net::ShardFrame&) { on_frame(i); });
      const auto phase = static_cast<Time>(uniform(rng, 1, kPeriod));
      world_.schedule(id, phase, [this, i, phase] { fire(i, phase); });
    }
    world_.run_until(kWarmPeriods * kPeriod);
  }

  net::ShardedWorld& world() { return world_; }
  void stop_traffic() { stopped_ = true; }
  [[nodiscard]] std::uint64_t deliveries() const {
    std::uint64_t n = 0;
    for (const std::uint64_t d : delivered_) n += d;
    return n;
  }
  // Deliveries the lattice geometry predicts for every broadcast so far.
  [[nodiscard]] std::uint64_t predicted() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      int neighbours = 0;
      for (int dy = -kReach; dy <= kReach; ++dy) {
        for (int dx = -kReach; dx <= kReach; ++dx) {
          if (in_range(dx, dy) && exists(x_of(i) + dx, y_of(i) + dy)) neighbours++;
        }
      }
      n += fires_[i] * static_cast<std::uint64_t>(neighbours);
    }
    return n;
  }

 private:
  [[nodiscard]] int x_of(std::size_t i) const { return static_cast<int>(i % static_cast<std::size_t>(side_)); }
  [[nodiscard]] int y_of(std::size_t i) const { return static_cast<int>(i / static_cast<std::size_t>(side_)); }
  [[nodiscard]] bool exists(int x, int y) const {
    return x >= 0 && y >= 0 && x < side_ && y < side_ &&
           static_cast<std::size_t>(y) * static_cast<std::size_t>(side_) + static_cast<std::size_t>(x) < kNodes;
  }

  void fire(std::size_t i, Time at) {
    if (stopped_) return;
    maybe_span(traced_, slot::kTimer, [this, i, at] { fire_body(i, at); });
  }

  void fire_body(std::size_t i, Time at) {
    fires_[i]++;
    const NodeId id{first_id_ + i};
    maybe_span(traced_, slot::kDown, [this, id] { (void)world_.broadcast(id, payload_); });
    const Time next = at + kPeriod;
    world_.schedule(id, next, [this, i, next] { fire(i, next); });
  }

  void on_frame(std::size_t i) {
    maybe_span(traced_, up_slot(net::Proto::kApp), [this, i] { delivered_[i]++; });
  }

  net::ShardedWorld world_;
  bool traced_;
  bool stopped_ = false;
  int side_;
  std::uint64_t first_id_ = 0;
  Bytes payload_;
  std::vector<std::uint64_t> fires_;  // per node, owner shard only
  std::vector<std::uint64_t> delivered_;
};

struct Phase {
  Blocks blocks;
  std::vector<double> step_ms;  // processor time per simulated step
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t tracer_records = 0;
  std::uint64_t digest = 0;
};

Phase run_timed(Scale& s, int periods, bool traced) {
  Phase ph;
  net::ShardedWorld& w = s.world();
  const std::uint64_t d0 = s.deliveries();
  const std::uint64_t e0 = w.engine().stats().executed;
  const net::ShardedWorld::Totals t0 = w.totals();
  const std::uint64_t r0 = obs::Tracer::instance().recorded();
  const Time start = w.engine().now(0);
  const auto steps = static_cast<std::size_t>(periods * kPeriod / kStep);
  const std::size_t per_block = std::max<std::size_t>(1, steps / Blocks::kCount);
  ph.step_ms.reserve(steps);
  ph.blocks.mark(0);
  for (std::size_t k = 1; k <= steps; ++k) {
    const Time t = start + static_cast<Time>(k) * kStep;
    const std::int64_t s0 = thread_cpu_ns();
    maybe_span(traced, slot::kDrive, [&w, t] { w.run_until(t); });
    ph.step_ms.push_back(static_cast<double>(thread_cpu_ns() - s0) / 1e6);
    if (k % per_block == 0 || k == steps) ph.blocks.mark(s.deliveries() - d0, ph.step_ms.size());
  }
  const net::ShardedWorld::Totals t1 = w.totals();
  ph.deliveries = s.deliveries() - d0;
  ph.events = w.engine().stats().executed - e0;
  ph.frames_sent = t1.frames_sent - t0.frames_sent;
  ph.cross_shard = t1.cross_shard_transmissions - t0.cross_shard_transmissions;
  ph.tracer_records = obs::Tracer::instance().recorded() - r0;
  ph.digest = w.digest();
  return ph;
}

// After the timed phase: stop re-arming, let in-flight frames land, and
// compare the receivers' count with the program's and the geometry's.
void check_scale(Scale& s, Report& report) {
  s.stop_traffic();
  net::ShardedWorld& w = s.world();
  w.run_until(w.engine().now(0) + kPeriod);
  const std::uint64_t mine = s.deliveries();
  const std::uint64_t predicted = s.predicted();
  report.check(mine == predicted, "scale deliveries == lattice prediction (" +
                                      std::to_string(mine) + " vs " +
                                      std::to_string(predicted) + ")");
  report.check(w.totals().frames_delivered == mine, "scale ShardedWorld delivery count == receivers' count");
}

}  // namespace

Report run_scale_sim(const Options& opt) {
  Report report;
  const int periods = work_share(opt, opt.seconds * kPeriodsPerSecond);

  if (!opt.trace) {
    std::vector<double> setup;
    auto scale = build_repeated<Scale>(kSetups, setup, [&opt] {
      return std::make_unique<Scale>(opt.seed, 1, false);
    });
    const Phase ph = run_timed(*scale, periods, false);
    check_scale(*scale, report);
    report.notes.push_back(ph.blocks.unscaled_note());
    const auto ops = static_cast<double>(ph.deliveries);
    report.attempted = ph.deliveries;
    report.add("ops_per_s", ph.blocks.median_ops_per_s(), "1/s");
    report.add("cpu_us_per_op", ph.blocks.median_cpu_us_per_op(), "us");
    report.add("latency_p50_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.50), "ms");
    report.add("latency_p99_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.99), "ms");
    const double wire_per_frame =
        static_cast<double>(kPayloadBytes + net::wifi80211(kRangeM, 0.0).header_bytes);
    report.add("wire_bytes_per_op", ratio(static_cast<double>(ph.frames_sent) * wire_per_frame, ops),
               "bytes");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  auto plain = std::make_unique<Scale>(opt.seed, 1, false);
  const Phase base = run_timed(*plain, periods, false);
  const double registered = static_cast<double>(obs::MetricsRegistry::instance().size());
  check_scale(*plain, report);
  const double teardown = destroy_timed(plain);

  auto scale = std::make_unique<Scale>(opt.seed, 1, true);
  Profiler::instance().reset();
  const Phase ph = run_timed(*scale, periods, true);
  const Profiler& prof = Profiler::instance();
  report.notes.push_back("scale-sim traced self-time shares:\n" + prof.shares());
  report.check(ph.digest == base.digest, "scale traced digest == untraced digest");
  check_scale(*scale, report);
  report.attempted = ph.deliveries;
  scale.reset();

  // Last, so that its all-core load cannot slow the runs measured above;
  // unpinned, so that its workers can spread over the CPUs.
  unpin();
  const auto nproc = static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  auto parallel = std::make_unique<Scale>(opt.seed, std::min(nproc, kShards), false);
  const Phase par = run_timed(*parallel, periods, false);
  parallel.reset();
  report.check(par.digest == base.digest, "scale digest identical at 1 and nproc workers");

  const auto ops = static_cast<double>(ph.deliveries);
  const SpanTotals& drive = prof.at(slot::kDrive);
  const SpanTotals& down = prof.at(slot::kDown);
  LayerMetrics lm;
  lm.set("sim.events_per_op", ratio(static_cast<double>(ph.events), ops));
  lm.set("sim.sharded.self_ns_per_event",
         ratio(static_cast<double>(drive.self_ns), static_cast<double>(ph.events)));
  lm.set("sim.sharded.speedup_nproc", ratio(base.blocks.scaled_wall_s(), par.blocks.scaled_wall_s()));
  lm.set("net.sharded.broadcast_ns",
         ratio(static_cast<double>(down.total_ns), static_cast<double>(down.count)));
  lm.set("net.sharded.cross_shard_share",
         ratio(static_cast<double>(ph.cross_shard), static_cast<double>(ph.frames_sent)));
  lm.set("obs.tracer_records_per_op", ratio(static_cast<double>(ph.tracer_records), ops));
  lm.set("obs.registered_metrics", registered);
  lm.set("node.teardown_s", teardown);
  lm.set("trace_overhead_ratio", ratio(ph.blocks.scaled_wall_s(), base.blocks.scaled_wall_s()));
  lm.emit(report);
  return report;
}

}  // namespace perfbench
