// Hot-path throughput bench for the discrete-event engine and the link
// layer: schedule/cancel/step ops/sec on sim::Simulator, and wireless
// broadcast fan-out rounds at 100/1k/10k nodes on net::World. These are
// the two paths every experiment in DESIGN.md's index funnels through, so
// a regression here slows the whole harness (ROADMAP: "as fast as the
// hardware allows"). Honors NDSM_BENCH_QUICK=1 (run_benches.sh --quick).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

using namespace ndsm;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             // ndsm-lint: allow(wall-clock): measuring real engine throughput is this bench's whole purpose; nothing feeds back into simulated behaviour
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Schedule `n` events at uniformly random times, then drain. Returns
// (schedule+execute) ops per second.
double bench_schedule_step(std::size_t n) {
  sim::Simulator sim{1234};
  Rng rng{99};
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule_at(static_cast<Time>(rng.uniform_int(0, 1'000'000'000)), [] {});
  }
  sim.run_all();
  const double dt = now_s() - t0;
  return static_cast<double>(2 * n) / dt;  // n schedules + n steps
}

// Schedule `n` events, cancel every other one, drain the rest. Returns
// (schedule+cancel+step) ops per second — exercises tombstone handling.
double bench_schedule_cancel(std::size_t n) {
  sim::Simulator sim{1234};
  Rng rng{7};
  std::vector<EventId> ids;
  ids.reserve(n);
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(
        sim.schedule_at(static_cast<Time>(rng.uniform_int(0, 1'000'000'000)), [] {}));
  }
  for (std::size_t i = 0; i < n; i += 2) sim.cancel(ids[i]);
  sim.run_all();
  const double dt = now_s() - t0;
  return static_cast<double>(2 * n + n / 2) / dt;
}

// Self-rescheduling churn: `k` chains each hop `hops` times — the
// steady-state pattern of periodic timers and retransmission timeouts.
double bench_churn(std::size_t chains, std::size_t hops) {
  sim::Simulator sim{5};
  std::size_t remaining = chains * hops;
  std::function<void()> hop = [&] {
    if (remaining == 0) return;
    --remaining;
    sim.schedule_after(10, hop);
  };
  const double t0 = now_s();
  for (std::size_t i = 0; i < chains; ++i) sim.schedule_at(static_cast<Time>(i), hop);
  sim.run_all();
  const double dt = now_s() - t0;
  return static_cast<double>(sim.executed_events()) / dt;
}

struct BroadcastResult {
  double broadcasts_per_s = 0;
  double deliveries_per_s = 0;
  std::uint64_t delivered = 0;
};

// Lattice of `n` wireless nodes (10 m spacing, 25 m range: ~12 neighbors
// each), every node broadcasts a 64-byte payload once per round. The seed
// engine scans all n members per broadcast — O(n^2) per round.
BroadcastResult bench_broadcast(std::size_t n, std::size_t rounds) {
  sim::Simulator sim{42};
  net::World world{sim};
  const MediumId m = world.add_medium(net::wifi80211(/*range_m=*/25.0, /*loss=*/0.0));
  const auto side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = world.add_node({static_cast<double>(i % side) * 10.0,
                                      static_cast<double>(i / side) * 10.0});
    world.attach(id, m);
    world.set_handler(id, net::Proto::kApp, [](const net::LinkFrame&) {});
    nodes.push_back(id);
  }
  const Bytes payload(64, 0xab);
  const double t0 = now_s();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const NodeId id : nodes) {
      world.link_broadcast(id, net::Proto::kApp, payload, m);
    }
    sim.run_all();
  }
  const double dt = now_s() - t0;
  BroadcastResult out;
  out.delivered = world.stats().frames_delivered;
  out.broadcasts_per_s = static_cast<double>(n * rounds) / dt;
  out.deliveries_per_s = static_cast<double>(out.delivered) / dt;
  return out;
}

// Reliable-transport ping-pong over two wireless nodes: serialized
// round-trips, so throughput is dominated by the per-message stack cost —
// fragment and routing-header encode (incl. the header's unconditional
// trace-context trailer), id allocation, ack handling, and ring recording
// when tracing is enabled.
// This is the sub-bench behind the tracing-overhead gate in
// run_benches.sh. `keep` (optional) receives the field so the caller can
// read live rtt histograms before teardown.
double bench_transport_pingpong(std::size_t msgs,
                                std::unique_ptr<bench::Field>* keep = nullptr) {
  auto field = std::make_unique<bench::Field>(2, 10.0, /*seed=*/7, /*battery_j=*/0.0);
  field->with_global_routers();
  auto& transport = field->transport(0);
  const NodeId peer = field->nodes[1];
  std::size_t remaining = msgs;
  std::function<void(Status)> pong = [&](Status) {
    if (remaining == 0) return;
    --remaining;
    transport.send(peer, transport::ports::kApp, Bytes(64, 0x5a), pong);
  };
  const double t0 = now_s();
  pong(Status::ok());
  field->sim.run_all();
  const double dt = now_s() - t0;
  if (keep != nullptr) *keep = std::move(field);
  return static_cast<double>(msgs) / dt;
}

// Tracing-overhead ratio (traced/untraced throughput, 1.0 = free):
// back-to-back A/B pairs inside one process, median of the per-pair
// ratios. Adjacent runs share machine state, so the ratio isolates the
// ring-recording cost from wall-clock noise that would swamp a
// cross-process comparison.
double bench_tracing_overhead_ratio(std::size_t msgs, int pairs) {
  auto& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  // Untimed warm run: fills the ring to capacity (steady-state operation
  // is wraparound over already-built slots, not first-fill vector growth)
  // and warms code/allocator caches so the first timed pair isn't biased
  // against whichever side runs first.
  tracer.set_enabled(true);
  tracer.clear();
  (void)bench_transport_pingpong(obs::Tracer::kDefaultCapacity);
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    tracer.set_enabled(true);
    const double on = bench_transport_pingpong(msgs);
    tracer.set_enabled(false);
    const double off = bench_transport_pingpong(msgs);
    ratios.push_back(on / off);
  }
  tracer.clear();
  tracer.set_enabled(was_enabled);
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

}  // namespace

int main() {
  bench::header("sim_engine", "event engine + broadcast fan-out hot-path throughput");
  const bool quick = bench::quick_mode();

  // NDSM_TRACE=0 disables ring recording (context bytes still ride every
  // frame — behaviour neutrality); NDSM_TRACE=1 forces it on. Unset keeps
  // the build default.
  const char* trace_env = std::getenv("NDSM_TRACE");
  if (trace_env != nullptr && *trace_env != '\0') {
    obs::Tracer::instance().set_enabled(*trace_env != '0');
  }
  const bool tracing = obs::Tracer::instance().enabled();
  const std::size_t ev_n = quick ? 100'000 : 1'000'000;

  const double sched = bench_schedule_step(ev_n);
  std::printf("schedule+step      %10.0f ops/s  (%zu events)\n", sched, ev_n);
  const double cancel = bench_schedule_cancel(ev_n);
  std::printf("schedule+cancel    %10.0f ops/s  (%zu events, half cancelled)\n", cancel,
              ev_n);
  const double churn = bench_churn(quick ? 100 : 1000, 1000);
  std::printf("timer churn        %10.0f events/s\n", churn);

  bench::row_sep();
  const std::size_t sizes[] = {100, 1000, 10000};
  double bcast[3] = {0, 0, 0};
  double deliv[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const std::size_t n = sizes[i];
    if (quick && n > 1000) continue;
    std::size_t rounds = n >= 10000 ? 2 : (n >= 1000 ? 20 : 200);
    if (quick) rounds = 1;
    const BroadcastResult r = bench_broadcast(n, rounds);
    bcast[i] = r.broadcasts_per_s;
    deliv[i] = r.deliveries_per_s;
    std::printf("broadcast n=%-6zu %10.0f bcast/s  %12.0f deliveries/s\n", n,
                r.broadcasts_per_s, r.deliveries_per_s);
  }

  bench::row_sep();
  const std::size_t msgs = quick ? 2'000 : 20'000;
  const double ratio = bench_tracing_overhead_ratio(quick ? 1'000 : 10'000, quick ? 3 : 5);
  std::unique_ptr<bench::Field> field;
  const double tput = bench_transport_pingpong(msgs, &field);
  std::printf("transport pingpong %10.0f msgs/s  (%zu round-trips, tracing %s)\n", tput,
              msgs, tracing ? "on" : "off");
  std::printf("tracing overhead   %9.1f%%  (median of interleaved on/off pairs)\n",
              (1.0 - ratio) * 100.0);

  bench::emit_json("sim_engine",
                   "sched_step_ops_per_s", sched,
                   "sched_cancel_ops_per_s", cancel,
                   "churn_events_per_s", churn,
                   "bcast_100_per_s", bcast[0],
                   "bcast_1k_per_s", bcast[1],
                   "bcast_10k_per_s", bcast[2],
                   "deliv_1k_per_s", deliv[1],
                   "quick", quick);
  // Separate line for the tracing-overhead gate: run_benches.sh feeds it
  // to bench_compare.py against an ideal ratio of 1.0 with --threshold 5,
  // so recording spans costing more than ~5% of transport throughput
  // fails the bench suite. Emitted while the last ping-pong field is
  // still alive, so the rtt percentiles are the measured distribution.
  bench::emit_json("transport_pingpong",
                   "transport_msgs_per_s", tput,
                   "trace_overhead_ratio", ratio,
                   "trace_enabled", tracing);
  return 0;
}
