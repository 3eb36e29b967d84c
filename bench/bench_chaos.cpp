// E13 (§3.6/§3.8): chaos resilience — reliable-transport goodput under a
// composed net::FaultPlan schedule (burst loss, duplication, delay
// jitter, partitions, node churn), plus the determinism contract: twin
// runs of the same fault schedule are digest-identical.
//
// One table: fault intensity ramp (none / moderate / severe) on a shared
// segment, every node streaming to a fixed partner. Delivery must
// degrade gracefully (no collapse to zero while the network is
// partially up), duplicates injected by the faults must never surface
// to the application, and every configuration must reproduce its own
// event digest exactly. Goodput is a median over a fixed seed set.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/faults.hpp"
#include "obs/trace.hpp"

using namespace ndsm;

namespace {

struct ChaosLevel {
  const char* name;
  double burst_enter;  // Gilbert–Elliott P(good->bad)
  double dup_p;
  double jitter_p;
  bool partition;
  std::size_t crashes;
};

struct RunResult {
  std::string digest;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dup_deliveries = 0;  // at-most-once violations
  net::FaultStats faults;
};

RunResult run_level(const ChaosLevel& level, std::size_t n, Time run_for,
                    std::uint64_t seed) {
  net::LinkSpec spec = net::ethernet100();
  spec.loss_probability = 0.01;
  sim::Simulator sim{seed};
  net::World world{sim};
  const MediumId medium = world.add_medium(std::move(spec));
  auto table = std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kGlobal;
  cfg.table = table;
  cfg.media = {medium};
  std::vector<std::unique_ptr<node::Runtime>> fleet;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    auto rt = std::make_unique<node::Runtime>(
        world, Vec2{static_cast<double>(i) * 10.0, 0.0}, cfg);
    nodes.push_back(rt->id());
    fleet.push_back(std::move(rt));
  }

  std::map<std::string, int> delivered;
  auto bind_app = [&](std::size_t i) {
    fleet[i]->transport().set_receiver(
        transport::ports::kApp, [&delivered, &fleet, i](NodeId, const Bytes& b) {
          delivered[to_string(b) + '@' + std::to_string(i) + '.' +
                    std::to_string(fleet[i]->stats().restarts)]++;
        });
  };
  for (std::size_t i = 0; i < n; ++i) bind_app(i);

  std::vector<std::uint64_t> seq(n, 0);
  std::uint64_t sent = 0;
  sim::PeriodicTimer traffic{sim, duration::millis(500), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (!fleet[i]->up()) continue;
      fleet[i]->transport().send(
          nodes[(i + 7) % n], transport::ports::kApp,
          to_bytes(std::to_string(i) + ':' + std::to_string(seq[i]++)));
      sent++;
    }
  }};
  traffic.start();

  net::FaultPlan faults{world};
  faults.set_lifecycle_hooks(
      [&](NodeId id) {
        for (std::size_t i = 0; i < n; ++i) {
          if (nodes[i] == id) fleet[i]->crash();
        }
      },
      [&](NodeId id) {
        for (std::size_t i = 0; i < n; ++i) {
          if (nodes[i] == id) {
            fleet[i]->restart();
            bind_app(i);
          }
        }
      });
  net::BurstLossSpec ge;
  ge.p_good_to_bad = level.burst_enter;
  ge.p_bad_to_good = 0.1;
  ge.loss_bad = 0.6;
  faults.burst_loss(medium, ge);
  faults.duplication(level.dup_p, duration::millis(30));
  faults.jitter(level.jitter_p, duration::millis(50));
  if (level.partition) {
    std::vector<NodeId> island(nodes.begin(), nodes.begin() + static_cast<long>(n / 3));
    faults.partition(run_for / 4, island, run_for / 4);
  }
  for (std::size_t k = 0; k < level.crashes; ++k) {
    faults.crash(duration::seconds(2) + duration::millis(900) * k, nodes[1 + k],
                 duration::seconds(2));
  }

  sim.run_until(run_for);

  RunResult out;
  out.digest = std::to_string(sim.digest());
  out.sent = sent;
  for (const auto& [key, count] : delivered) {
    out.delivered += static_cast<std::uint64_t>(count);
    if (count > 1) out.dup_deliveries += static_cast<std::uint64_t>(count - 1);
  }
  out.faults = faults.stats();
  return out;
}

}  // namespace

int main() {
  bench::header("E13 (§3.6/§3.8) — goodput and determinism under composed faults",
                "delivery degrades gracefully; injected duplicates never surface; "
                "twin fault runs are digest-identical");

  const bool quick = bench::quick_mode();
  const std::size_t n = quick ? 20 : 60;
  const Time run_for = quick ? duration::seconds(10) : duration::seconds(30);
  const std::vector<ChaosLevel> levels = {
      {"none", 0.0, 0.0, 0.0, false, 0},
      {"moderate", 0.001, 0.01, 0.02, false, quick ? std::size_t{2} : std::size_t{5}},
      {"severe", 0.005, 0.05, 0.10, true, quick ? std::size_t{4} : std::size_t{10}},
  };

  // The counts are seed 4242's; goodput is the median over the seed set,
  // and no seed may surface a duplicate.
  const std::vector<std::uint64_t> seeds = bench::seed_set(4242);
  std::printf("%zu nodes, 2 msg/s each, %.0f s simulated; goodput: median over seeds %llu..%llu\n\n",
              n, to_seconds(run_for), static_cast<unsigned long long>(seeds.front()),
              static_cast<unsigned long long>(seeds.back()));
  std::printf("%-10s %10s %10s %12s %12s %10s %10s %8s %8s\n", "level", "sent", "delivered",
              "fault drops", "dups inject", "dup deliv", "crashes", "goodput", "twin ok");
  bench::row_sep();

  bool all_deterministic = true;
  bool no_dup_deliveries = true;
  double goodput_none = 0;
  double goodput_severe = 0;
  for (const auto& level : levels) {
    std::vector<RunResult> runs;
    std::vector<double> goodputs;
    for (const std::uint64_t seed : seeds) {
      const RunResult& r = runs.emplace_back(run_level(level, n, run_for, seed));
      no_dup_deliveries = no_dup_deliveries && r.dup_deliveries == 0;
      goodputs.push_back(r.sent == 0 ? 0.0
                                     : static_cast<double>(r.delivered) /
                                           static_cast<double>(r.sent));
    }
    const RunResult& a = runs.front();
    const RunResult twin = run_level(level, n, run_for, seeds.front());
    const bool twin_ok = a.digest == twin.digest && a.delivered == twin.delivered;
    all_deterministic = all_deterministic && twin_ok;
    const double goodput = bench::median(goodputs);
    if (std::string(level.name) == "none") goodput_none = goodput;
    if (std::string(level.name) == "severe") goodput_severe = goodput;
    std::printf("%-10s %10llu %10llu %12llu %12llu %10llu %10llu %8.4f %8s\n", level.name,
                static_cast<unsigned long long>(a.sent),
                static_cast<unsigned long long>(a.delivered),
                static_cast<unsigned long long>(a.faults.partition_drops +
                                                a.faults.burst_drops),
                static_cast<unsigned long long>(a.faults.duplicates_injected),
                static_cast<unsigned long long>(a.dup_deliveries),
                static_cast<unsigned long long>(a.faults.crashes), goodput,
                twin_ok ? "yes" : "NO");
  }
  bench::row_sep();
  std::printf("note: 'dup deliv' counts payloads an application saw twice within\n"
              "one receiver incarnation — the transport's dedup floor plus sender\n"
              "epochs must hold it at zero at every fault level.\n");

  // E14: re-run the severe level with the tracer armed and export the
  // causal trace — jsonl for scripts/trace_analyze.py (critical-path
  // breakdown: queue vs air vs retransmit vs processing) and Chrome
  // trace_event JSON for ui.perfetto.dev. The ring keeps the most recent
  // window, so the dump holds complete end-to-end message traces from the
  // tail of the run, retransmissions and fault-injected delays included.
  auto& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  tracer.clear();
  (void)run_level(levels.back(), n, run_for, 4242);
  std::uint64_t traced_events = tracer.recorded();
  bool trace_exported = false;
  try {
    std::filesystem::create_directories("out");
    trace_exported = tracer.dump_jsonl("out/trace_chaos.jsonl") &&
                     tracer.dump_perfetto("out/trace_chaos.perfetto.json");
  } catch (...) {
    trace_exported = false;
  }
  tracer.clear();
  tracer.set_enabled(was_enabled);
  bench::row_sep();
  std::printf("E14 trace export: %s (%llu events recorded)\n",
              trace_exported ? "out/trace_chaos.jsonl + out/trace_chaos.perfetto.json"
                             : "FAILED",
              static_cast<unsigned long long>(traced_events));
  std::printf("  analyze: python3 scripts/trace_analyze.py out/trace_chaos.jsonl\n"
              "  view:    load out/trace_chaos.perfetto.json at ui.perfetto.dev\n");

  bench::emit_json("chaos", "all_deterministic", all_deterministic,
                   "no_duplicate_deliveries", no_dup_deliveries,
                   "goodput_clean", goodput_none,
                   "goodput_severe", goodput_severe,
                   "nodes", static_cast<std::uint64_t>(n),
                   "trace_exported", trace_exported);
  return (all_deterministic && no_dup_deliveries && trace_exported) ? 0 : 1;
}
