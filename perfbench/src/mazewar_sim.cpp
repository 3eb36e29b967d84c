// mazewar-sim: 64 autopilot Mazewar players on one lossless simulated
// 100 Mb Ethernet segment, ticking at 10 Hz. Every tick is a broadcast to
// 63 peers, so the event engine, the World's wired fan-out and the game's
// frame handler do the work; transport, routing and the WAL do none.
//
// Op: one player tick. Players join at seeded offsets inside the first
// tick period, so peer views age out of lockstep. Simulated latency is the
// staleness of every peer view (now - last heard), read by the benchmark
// at one seeded instant in each 250 ms step; only the traced run reads
// it, so the gated run carries no sampling work.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "apps/mazewar/mazewar.hpp"
#include "common.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace ndsm;

constexpr std::size_t kPlayers = 64;
constexpr Time kTick = duration::millis(100);
constexpr Time kStep = duration::millis(250);  // latency_* sample: one step
constexpr Time kMaxStaleness = duration::seconds(1);  // histogram range
constexpr Time kStalenessBin = duration::micros(100);
constexpr std::int64_t kTicksPerSimSecond = 10;
constexpr int kWarmSimSeconds = 30;
// Work per run: simulated seconds per --seconds, sized so the timed
// phase lasts about --seconds on a 4-vCPU x86-64 VM.
constexpr double kSimSecondsPerSecond = 100;
constexpr int kSetups = 5;

class Game {
 public:
  Game(std::uint64_t seed, bool traced)
      : sim_(seed * 0x9e3779b97f4a7c15ULL + 1), world_(sim_), rng_(input_rng(seed, 0x6d617a65)) {
    const MediumId medium = world_.add_medium(net::ethernet100());
    InputRng& rng = rng_;
    players_.resize(kPlayers);
    for (std::size_t i = 0; i < kPlayers; ++i) {
      const NodeId id = world_.add_node(Vec2{static_cast<double>(i) * 5.0, 0.0});
      world_.attach(id, medium);
      stacks_.push_back(std::make_unique<net::WorldStack>(world_, id));
      if (traced) timed_.push_back(std::make_unique<TimedStack>(*stacks_.back()));
      const auto join = static_cast<Time>(uniform(rng, 0, kTick - 1));
      sim_.schedule_at(join, [this, i] {
        players_[i] = std::make_unique<apps::mazewar::Player>(stack(i));
      });
    }
    sim_.run_until(duration::seconds(kWarmSimSeconds));
  }

  net::Stack& stack(std::size_t i) {
    return timed_.empty() ? static_cast<net::Stack&>(*stacks_[i]) : *timed_[i];
  }
  sim::Simulator& sim() { return sim_; }
  net::World& world() { return world_; }
  const std::vector<std::unique_ptr<apps::mazewar::Player>>& players() const { return players_; }
  InputRng& rng() { return rng_; }

  // Staleness of every peer view right now.
  void sample_staleness(UsHistogram& hist) const {
    const Time now = sim_.now();
    for (const auto& p : players_) {
      for (const auto& [peer, view] : p->peers()) hist.add(now - view.last_heard);
    }
  }

 private:
  // Destroyed bottom-up: players, then the stacks they use, then the sim.
  sim::Simulator sim_;
  net::World world_;
  InputRng rng_;
  std::vector<std::unique_ptr<net::WorldStack>> stacks_;
  std::vector<std::unique_ptr<TimedStack>> timed_;
  std::vector<std::unique_ptr<apps::mazewar::Player>> players_;
};

struct Totals {
  std::uint64_t ticks = 0;
  std::uint64_t states_received = 0;
  std::uint64_t events = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t tracer_records = 0;

  static Totals of(Game& g) {
    Totals t;
    for (const auto& p : g.players()) {
      t.ticks += p->stats().states_sent;
      t.states_received += p->stats().states_received;
    }
    t.events = g.sim().executed_events();
    t.frames_delivered = g.world().stats().frames_delivered;
    t.bytes_on_wire = g.world().stats().bytes_on_wire;
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
  double staleness_p50 = 0;
  double staleness_p99 = 0;
};

// With `sample`, every step stops once at a seeded instant to read the
// peer views' staleness.
Phase run_timed(Game& g, int sim_seconds, bool traced, bool sample) {
  Phase ph;
  ph.before = Totals::of(g);
  const Time start = g.sim().now();
  const auto steps = static_cast<std::size_t>(duration::seconds(sim_seconds) / kStep);
  std::optional<UsHistogram> staleness;
  if (sample) staleness.emplace(kMaxStaleness, kStalenessBin);
  const std::size_t per_block = std::max<std::size_t>(1, steps / Blocks::kCount);
  ph.step_ms.reserve(steps);
  auto ticks_so_far = [&g, &ph] { return Totals::of(g).ticks - ph.before.ticks; };
  auto run_until = [&g, traced](Time until) {
    const std::int64_t s0 = thread_cpu_ns();
    maybe_span(traced, slot::kDrive, [&g, until] { g.sim().run_until(until); });
    return static_cast<double>(thread_cpu_ns() - s0) / 1e6;
  };
  ph.blocks.mark(0);
  for (std::size_t k = 1; k <= steps; ++k) {
    const Time t = start + static_cast<Time>(k) * kStep;
    double ms = 0;
    if (staleness) {
      ms += run_until(t - kStep + static_cast<Time>(uniform(g.rng(), 1, kStep - 1)));
      g.sample_staleness(*staleness);
    }
    ms += run_until(t);
    ph.step_ms.push_back(ms);
    if (k % per_block == 0 || k == steps) ph.blocks.mark(ticks_so_far(), ph.step_ms.size());
  }
  ph.after = Totals::of(g);
  ph.digest = g.sim().digest();
  if (staleness) {
    ph.staleness_p50 = staleness->quantile_ms(0.50);
    ph.staleness_p99 = staleness->quantile_ms(0.99);
  }
  return ph;
}

// Tick count, malformed frames, and score conservation after a cease-fire.
void check_game(Game& g, const Phase& ph, int sim_seconds, Report& report) {
  const std::uint64_t ticks = ph.after.ticks - ph.before.ticks;
  report.check(ticks == kPlayers * static_cast<std::uint64_t>(sim_seconds) * kTicksPerSimSecond,
               "mazewar ticks == players x simulated seconds x 10 (got " +
                   std::to_string(ticks) + ")");
  for (const auto& p : g.players()) p->set_autopilot(false);
  const Time limit = g.sim().now() + duration::seconds(60);
  auto quiet = [&g] {
    for (const auto& p : g.players()) {
      if (p->pending_claims() != 0 || p->self_state().missile_live) return false;
    }
    return true;
  };
  while (!quiet() && g.sim().now() < limit) g.sim().run_until(g.sim().now() + kTick);
  g.sim().run_until(g.sim().now() + duration::seconds(1));
  std::uint64_t confirmed = 0;
  std::uint64_t suffered = 0;
  std::uint64_t malformed = 0;
  for (const auto& p : g.players()) {
    confirmed += p->stats().hits_confirmed;
    suffered += p->stats().hits_suffered;
    malformed += p->stats().malformed_dropped;
  }
  report.check(quiet(), "mazewar claims drain after the cease-fire");
  report.check(confirmed == suffered, "mazewar sum(hits_confirmed) == sum(hits_suffered) (" +
                                          std::to_string(confirmed) + " vs " +
                                          std::to_string(suffered) + ")");
  report.check(malformed == 0, "mazewar malformed_dropped == 0");
}

}  // namespace

Report run_mazewar_sim(const Options& opt) {
  Report report;
  const int sim_seconds = work_share(opt, opt.seconds * kSimSecondsPerSecond);
  const auto expected_ticks =
      kPlayers * static_cast<std::uint64_t>(sim_seconds) * kTicksPerSimSecond;
  report.attempted = expected_ticks;

  if (!opt.trace) {
    std::vector<double> setup;
    auto game = build_repeated<Game>(kSetups, setup, [&opt] {
      return std::make_unique<Game>(opt.seed, false);
    });
    const Phase ph = run_timed(*game, sim_seconds, false, false);
    const auto ticks = static_cast<double>(ph.after.ticks - ph.before.ticks);
    check_game(*game, ph, sim_seconds, report);
    report.notes.push_back(ph.blocks.unscaled_note());
    report.add("ops_per_s", ph.blocks.median_ops_per_s(), "1/s");
    report.add("cpu_us_per_op", ph.blocks.median_cpu_us_per_op(), "us");
    report.add("latency_p50_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.50), "ms");
    report.add("latency_p99_ms", ph.blocks.median_block_quantile(ph.step_ms, 0.99), "ms");
    report.add("wire_bytes_per_op",
               ratio(static_cast<double>(ph.after.bytes_on_wire - ph.before.bytes_on_wire), ticks),
               "bytes");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    report.failed = expected_ticks - std::min<std::uint64_t>(expected_ticks, ph.after.ticks - ph.before.ticks);
    return report;
  }

  // Traced run: the same game untraced, then traced, in one process.
  auto plain = std::make_unique<Game>(opt.seed, false);
  const Phase base = run_timed(*plain, sim_seconds, false, true);
  const double registered = static_cast<double>(obs::MetricsRegistry::instance().size());
  const double teardown = destroy_timed(plain);

  auto game = std::make_unique<Game>(opt.seed, true);
  Profiler::instance().reset();
  const Phase ph = run_timed(*game, sim_seconds, true, true);
  const Profiler& prof = Profiler::instance();
  report.notes.push_back("mazewar-sim traced self-time shares:\n" + prof.shares());
  report.check(ph.digest == base.digest, "mazewar traced digest == untraced digest");
  check_game(*game, ph, sim_seconds, report);

  const auto ticks = static_cast<double>(ph.after.ticks - ph.before.ticks);
  const auto events = static_cast<double>(ph.after.events - ph.before.events);
  const auto delivered = static_cast<double>(ph.after.frames_delivered - ph.before.frames_delivered);
  const SpanTotals& drive = prof.at(slot::kDrive);
  const SpanTotals& down = prof.at(slot::kDown);
  LayerMetrics lm;
  lm.set("sim_latency_p50_ms", base.staleness_p50);
  lm.set("sim_latency_p99_ms", base.staleness_p99);
  lm.set("sim.events_per_op", ratio(events, ticks));
  lm.set("sim.self_ns_per_event", ratio(static_cast<double>(drive.self_ns), events));
  lm.set("net.world.deliveries_per_op", ratio(delivered, ticks));
  lm.set("net.world.down_ns_per_frame",
         ratio(static_cast<double>(down.self_ns), static_cast<double>(down.count)));
  lm.set("apps.mazewar.up_ns_per_state",
         ratio(static_cast<double>(prof.at(up_slot(net::Proto::kMazewar)).total_ns),
               static_cast<double>(ph.after.states_received - ph.before.states_received)));
  lm.set("apps.mazewar.tick_ns", ratio(static_cast<double>(prof.at(slot::kTimer).total_ns), ticks));
  lm.set("obs.tracer_records_per_op",
         ratio(static_cast<double>(ph.after.tracer_records - ph.before.tracer_records), ticks));
  lm.set("obs.registered_metrics", registered);
  lm.set("node.teardown_s", teardown);
  lm.set("trace_overhead_ratio", ratio(ph.blocks.scaled_wall_s(), base.blocks.scaled_wall_s()));
  lm.emit(report);
  report.failed = expected_ticks - std::min<std::uint64_t>(expected_ticks, ph.after.ticks - ph.before.ticks);
  return report;
}

}  // namespace perfbench
