// E15 — sharded parallel simulation scale ramp (DESIGN §13, ROADMAP
// item 1): the broadcast-fan-out workload of bench_sim_engine (10 m
// lattice, 25 m range, 64-byte payloads, ~12 neighbors per node) run on
// net::ShardedWorld at 1k / 10k / 100k nodes with 1 / 2 / 4 / 8 workers.
//
// Two numbers matter, in order:
//   1. digest_match — every (nodes, workers) cell must produce the exact
//      digest of the workers=1 run of the same world. This is the
//      determinism contract; run_benches.sh fails the suite when it is 0.
//   2. events/s and the speedup column — throughput scaling. Speedup is
//      only meaningful relative to hw_threads (reported alongside): on a
//      single-core runner the parallel cells measure synchronization
//      overhead, not speedup, and the numbers say so honestly.
//
// Honors NDSM_BENCH_QUICK=1 (1k nodes, workers {1,2} only).

#include <chrono>
#include <cstdio>
#include <thread>  // ndsm-lint: allow(raw-concurrency): reads hardware_concurrency for honest speedup reporting; no thread is created here

#include "bench/bench_util.hpp"
#include "net/link_spec.hpp"
#include "net/sharded_world.hpp"

using namespace ndsm;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             // ndsm-lint: allow(wall-clock): measuring real engine throughput is this bench's whole purpose; nothing feeds back into simulated behaviour
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleResult {
  double events_per_s = 0;
  double broadcasts_per_s = 0;
  double deliveries_per_s = 0;
  std::uint64_t digest = 0;
  std::size_t shards = 0;
  std::uint64_t cross_shard = 0;
  double seconds = 0;
};

// Every node broadcasts `rounds` staggered 64-byte payloads; the world is
// striped into (up to) 8 shards regardless of worker count, so the digest
// is comparable across every cell of the ramp.
ScaleResult run_scale(std::size_t n, std::size_t workers, std::size_t rounds) {
  net::ShardedWorld w({.shards = 8, .workers = workers, .seed = 42});
  const MediumId m = w.add_medium(net::wifi80211(/*range_m=*/25.0, /*loss=*/0.0));
  const auto side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = w.add_node({static_cast<double>(i % side) * 10.0,
                                  static_cast<double>(i / side) * 10.0});
    w.attach(id, m);
    nodes.push_back(id);
  }
  const Bytes payload(64, 0xab);
  for (const NodeId id : nodes) {
    for (std::size_t r = 0; r < rounds; ++r) {
      // Staggered start times spread each round over 1 ms of virtual time
      // so windows carry realistic mixed batches instead of one spike.
      const Time at = duration::millis(1 + static_cast<Time>(r) * 10) +
                      static_cast<Time>(id.value() % 1000);
      w.schedule(id, at, [&w, id, payload] { (void)w.broadcast(id, payload); });
    }
  }
  // Partition and build the engine outside the timed region: the cell
  // measures event execution, not setup.
  w.seal();
  const double t0 = now_s();
  w.run_until(duration::millis(static_cast<Time>(1 + rounds * 10)));
  const double dt = now_s() - t0;

  ScaleResult out;
  out.seconds = dt;
  out.events_per_s = static_cast<double>(w.engine().stats().executed) / dt;
  out.broadcasts_per_s = static_cast<double>(n * rounds) / dt;
  out.deliveries_per_s = static_cast<double>(w.totals().frames_delivered) / dt;
  out.digest = w.digest();
  out.shards = w.shard_count();
  out.cross_shard = w.totals().cross_shard_transmissions;
  return out;
}

}  // namespace

int main() {
  bench::header("scale",
                "sharded parallel simulation: digest-identical scale ramp (E15)");
  const bool quick = bench::quick_mode();
  // ndsm-lint: allow(raw-concurrency): reads hardware_concurrency only; no thread is created
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u  (speedup is bounded by this; digest never is)\n\n",
              hw);

  const std::size_t sizes[] = {1'000, 10'000, 100'000};
  const std::size_t worker_counts[] = {1, 2, 4, 8};
  // events/s for [size][workers] cells; 0 = not run.
  double events[3][4] = {};
  double speedup[3] = {};
  bool digest_match = true;

  for (int si = 0; si < 3; ++si) {
    const std::size_t n = sizes[si];
    if (quick && n > 1'000) continue;
    const std::size_t rounds = n >= 100'000 ? 1 : (n >= 10'000 ? 2 : 5);
    std::uint64_t base_digest = 0;
    for (int wi = 0; wi < 4; ++wi) {
      const std::size_t workers = worker_counts[wi];
      if (quick && workers > 2) continue;
      const ScaleResult r = run_scale(n, workers, quick ? 1 : rounds);
      events[si][wi] = r.events_per_s;
      if (wi == 0) {
        base_digest = r.digest;
      } else if (r.digest != base_digest) {
        digest_match = false;
      }
      std::printf(
          "n=%-7zu workers=%zu  %10.0f events/s  %9.0f bcast/s  %11.0f deliv/s"
          "  shards=%zu  xshard=%llu  digest=%016llx%s\n",
          n, workers, r.events_per_s, r.broadcasts_per_s, r.deliveries_per_s, r.shards,
          static_cast<unsigned long long>(r.cross_shard),
          static_cast<unsigned long long>(r.digest),
          wi > 0 && r.digest != base_digest ? "  DIGEST MISMATCH" : "");
    }
    if (events[si][0] > 0 && events[si][3] > 0) {
      speedup[si] = events[si][3] / events[si][0];
      std::printf("n=%-7zu speedup(8w/1w) = %.2fx\n", n, speedup[si]);
    }
    bench::row_sep();
  }

  std::printf("digest_match: %s\n", digest_match ? "yes" : "NO — determinism broken");

  bench::emit_json("scale",
                   "scale_1k_w1_events_per_s", events[0][0],
                   "scale_1k_w2_events_per_s", events[0][1],
                   "scale_10k_w1_events_per_s", events[1][0],
                   "scale_10k_w8_events_per_s", events[1][3],
                   "scale_100k_w1_events_per_s", events[2][0],
                   "scale_100k_w8_events_per_s", events[2][3],
                   "speedup_10k_8w_ratio", speedup[1],
                   "hw_threads", static_cast<std::int64_t>(hw),
                   "digest_match", digest_match,
                   "quick", quick);
  return digest_match ? 0 : 1;
}
