// E17/E18 (§3 end-to-end, DESIGN §16): the flagship applications as
// middleware benchmarks. Both apps are written only against the
// net::Stack seam, so the same code measured here on the deterministic
// sim is what the fleet tests run over real UDP sockets.
//
// E17 — mazewar bounded staleness: a real-time game gossips state on the
// raw unreliable path; the metric that matters is how stale each player's
// view of each peer is (p50/p95 ms) as a composed fault ramp (burst loss,
// duplication, jitter, partition) intensifies. Claims about playability
// are claims about that tail.
//
// E18 — replfs commit latency and goodput: a replicated store pushes bulk
// data over unreliable multicast and correctness over a 2PC on the
// reliable transport. Under the same fault ramp (plus replica crashes)
// the acked-write guarantee must hold — every acked write durable on
// every replica — while commit latency degrades gracefully.
//
// Every level runs on a fixed seed set and reports medians (the acked-
// write guarantee must hold on every seed). Both halves also re-run one
// level twin-seeded and require the runs to be digest-identical (the
// determinism contract chaos debugging relies on).

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/mazewar/mazewar.hpp"
#include "apps/replfs/replfs.hpp"
#include "bench/bench_util.hpp"
#include "net/faults.hpp"
#include "net/world_stack.hpp"

using namespace ndsm;

namespace {

struct FaultLevel {
  const char* name;
  double burst_enter;  // Gilbert–Elliott P(good->bad); 0 = no burst loss
  double dup_p;
  double jitter_p;
  bool partition;
  std::size_t crashes;  // replfs only: replica crash/restart cycles
};

constexpr FaultLevel kLevels[] = {
    {"calm", 0.0, 0.0, 0.0, false, 0},
    {"moderate", 0.01, 0.03, 0.05, false, 1},
    {"severe", 0.03, 0.08, 0.15, true, 2},
};

void apply_link_faults(net::FaultPlan& faults, MediumId medium,
                       const FaultLevel& level) {
  if (level.burst_enter > 0) {
    faults.burst_loss(medium,
                      net::BurstLossSpec{level.burst_enter, 0.2, 0.0, 0.5});
  }
  if (level.dup_p > 0) faults.duplication(level.dup_p, duration::millis(50));
  if (level.jitter_p > 0) faults.jitter(level.jitter_p, duration::millis(50));
}

double percentile(const std::vector<double>& bounds,
                  const std::vector<std::uint64_t>& counts, double q) {
  return obs::quantile_from(bounds, counts, q);
}

// --- E17: mazewar staleness under the ramp ---------------------------------

struct MazeResult {
  double p50_ms = 0;
  double p95_ms = 0;
  std::uint64_t states = 0;
  std::uint64_t hits = 0;
  std::string digest;
};

MazeResult run_maze_level(const FaultLevel& level, std::size_t n_players,
                          Time run_for, std::uint64_t seed) {
  sim::Simulator sim{seed};
  net::World world{sim};
  const MediumId medium = world.add_medium(net::ethernet100());

  apps::mazewar::MazeConfig cfg;
  cfg.width = 23;
  cfg.height = 23;
  cfg.state_period = duration::millis(100);

  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<net::WorldStack>> stacks;
  std::vector<std::unique_ptr<apps::mazewar::Player>> players;
  for (std::size_t i = 0; i < n_players; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i % 6) * 4.0,
                                          static_cast<double>(i / 6) * 4.0});
    world.attach(id, medium);
    ids.push_back(id);
    stacks.push_back(std::make_unique<net::WorldStack>(world, id));
    players.push_back(std::make_unique<apps::mazewar::Player>(*stacks.back(), cfg));
  }

  net::FaultPlan faults{world, seed ^ 0xe17};
  apply_link_faults(faults, medium, level);
  if (level.partition) {
    faults.partition(run_for / 4, {ids.begin(), ids.begin() + static_cast<long>(n_players / 3)},
                     run_for / 4);
  }

  sim.run_until(run_for);
  // Cease fire and drain claims so the digest is a quiesced-state witness.
  for (const auto& p : players) p->set_autopilot(false);
  const auto pending = [&] {
    for (const auto& p : players) {
      if (p->pending_claims() > 0) return true;
    }
    return false;
  };
  while (pending() && sim.now() < run_for + duration::seconds(30)) {
    sim.run_until(sim.now() + duration::seconds(1));
  }

  MazeResult out;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::ostringstream dump;
  dump << sim.digest();
  for (const auto& p : players) {
    if (bounds.empty()) {
      bounds = p->staleness().bounds();
      counts.assign(p->staleness().counts().size(), 0);
    }
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += p->staleness().counts()[b];
    }
    out.states += p->stats().states_received;
    out.hits += p->stats().hits_confirmed;
    dump << '|' << p->digest();
  }
  out.p50_ms = percentile(bounds, counts, 0.50);
  out.p95_ms = percentile(bounds, counts, 0.95);
  out.digest = dump.str();
  return out;
}

// --- E18: replfs commit latency / goodput under the ramp -------------------

struct ReplfsResult {
  double commit_p50_ms = 0;
  double commit_p95_ms = 0;
  double goodput_wps = 0;  // committed writes per sim second
  int committed = 0;
  int failed = 0;
  bool acked_durable = true;
  std::string digest;
};

ReplfsResult run_replfs_level(const FaultLevel& level, std::size_t n_servers,
                              int writes, std::uint64_t seed) {
  sim::Simulator sim{seed};
  net::World world{sim};
  const MediumId medium = world.add_medium(net::ethernet100());
  auto table =
      std::make_shared<routing::GlobalRoutingTable>(world, routing::Metric::kHopCount);
  node::StackConfig cfg;
  cfg.router = node::RouterPolicy::kGlobal;
  cfg.table = table;
  cfg.media = {medium};

  std::vector<std::unique_ptr<node::Runtime>> fleet;
  std::vector<NodeId> server_ids;
  for (std::size_t i = 0; i <= n_servers; ++i) {  // last one is the client
    auto rt = std::make_unique<node::Runtime>(
        world, Vec2{static_cast<double>(i) * 5.0, 0.0}, cfg);
    if (i < n_servers) {
      server_ids.push_back(rt->id());
      rt->add_service<apps::replfs::Server>("replfs", [](node::Runtime& r) {
        return std::make_unique<apps::replfs::Server>(r.transport(), r.net_stack(),
                                                      r.storage("replfs-wal"));
      });
    }
    fleet.push_back(std::move(rt));
  }
  apps::replfs::Client client{fleet.back()->transport(), fleet.back()->net_stack(),
                              server_ids};

  net::FaultPlan faults{world, seed ^ 0xe18};
  std::map<NodeId, std::size_t> index;
  for (std::size_t i = 0; i < n_servers; ++i) index[server_ids[i]] = i;
  faults.set_lifecycle_hooks(
      [&](NodeId id) { fleet[index.at(id)]->crash(); },
      [&](NodeId id) { fleet[index.at(id)]->restart(); });
  apply_link_faults(faults, medium, level);
  if (level.partition) {
    faults.partition(duration::seconds(4), {server_ids[0]}, duration::seconds(2));
  }
  for (std::size_t k = 0; k < level.crashes; ++k) {
    faults.crash(duration::seconds(3 + 4 * static_cast<int>(k)),
                 server_ids[(k + 1) % n_servers], duration::seconds(2));
  }

  // Unique keys: an acked write can then be checked on every replica even
  // if a later write to some other key failed mid-protocol.
  std::map<std::string, Bytes> acked;
  int resolved = 0, failed = 0;
  for (int i = 0; i < writes; ++i) {
    const std::string key = "bench-" + std::to_string(i);
    Bytes value(static_cast<std::size_t>(64 + (i % 4) * 600), 0);
    for (std::size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<std::uint8_t>(i * 17 + b);
    }
    sim.schedule_after(duration::millis(400 * i), [&, key, value] {
      client.write(key, value, [&, key, value](Status s) {
        resolved++;
        if (s.is_ok()) {
          acked[key] = value;
        } else {
          failed++;
        }
      });
    });
  }
  while (resolved < writes && sim.now() < duration::seconds(180)) {
    sim.run_until(sim.now() + duration::seconds(1));
  }
  const double elapsed_s = static_cast<double>(sim.now()) / 1e6;
  sim.run_until(sim.now() + duration::seconds(2));  // settle late acks

  ReplfsResult out;
  out.committed = resolved - failed;
  out.failed = failed;
  out.goodput_wps = elapsed_s > 0 ? static_cast<double>(out.committed) / elapsed_s : 0;
  out.commit_p50_ms = percentile(client.commit_latency().bounds(),
                                 client.commit_latency().counts(), 0.50);
  out.commit_p95_ms = percentile(client.commit_latency().bounds(),
                                 client.commit_latency().counts(), 0.95);
  std::ostringstream dump;
  dump << sim.digest() << "|c:" << client.digest();
  for (std::size_t i = 0; i < n_servers; ++i) {
    const auto* server = fleet[i]->service<apps::replfs::Server>("replfs");
    dump << '|' << server->digest();
    for (const auto& [key, value] : acked) {
      const auto it = server->store().find(key);
      if (it == server->store().end() || it->second != value) {
        out.acked_durable = false;
      }
    }
  }
  out.digest = dump.str();
  return out;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();

  // ---- E17 ----------------------------------------------------------------
  bench::header("E17 (§16) — mazewar: peer-view staleness under a fault ramp",
                "gossip on the raw path keeps the p95 view staleness bounded "
                "near the state period as faults intensify; twin runs are "
                "digest-identical");
  const std::size_t players = quick ? 8 : 24;
  const Time maze_run = quick ? duration::seconds(8) : duration::seconds(20);

  const std::vector<std::uint64_t> maze_seeds = bench::seed_set(0x17);
  std::printf("medians over seeds 0x17..0x%llx\n",
              static_cast<unsigned long long>(maze_seeds.back()));
  std::printf("%-10s %12s %12s %12s %8s\n", "level", "stale_p50", "stale_p95",
              "states_rx", "hits");
  bench::row_sep();
  std::map<std::string, MazeResult> maze;  // per level: the medians
  std::string maze_severe_digest;          // the first seed's severe run
  for (const auto& level : kLevels) {
    std::vector<double> p50, p95, states, hits;
    for (const std::uint64_t seed : maze_seeds) {
      const MazeResult r = run_maze_level(level, players, maze_run, seed);
      p50.push_back(r.p50_ms);
      p95.push_back(r.p95_ms);
      states.push_back(static_cast<double>(r.states));
      hits.push_back(static_cast<double>(r.hits));
      if (&level == &kLevels[2] && seed == maze_seeds[0]) maze_severe_digest = r.digest;
    }
    MazeResult& m = maze[level.name];
    m.p50_ms = bench::median(p50);
    m.p95_ms = bench::median(p95);
    m.states = static_cast<std::uint64_t>(bench::median(states));
    m.hits = static_cast<std::uint64_t>(bench::median(hits));
    std::printf("%-10s %9.1f ms %9.1f ms %12llu %8llu\n", level.name, m.p50_ms, m.p95_ms,
                static_cast<unsigned long long>(m.states),
                static_cast<unsigned long long>(m.hits));
  }
  const MazeResult maze_twin = run_maze_level(kLevels[2], players, maze_run, maze_seeds[0]);
  const bool maze_deterministic = maze_twin.digest == maze_severe_digest;
  std::printf("severe twin run digest-identical: %s\n",
              maze_deterministic ? "yes" : "NO");

  bench::emit_json("apps_mazewar",                                    //
                   "players", static_cast<std::uint64_t>(players),    //
                   "stale_p95_calm_ms", maze["calm"].p95_ms,          //
                   "stale_p95_severe_ms", maze["severe"].p95_ms,      //
                   "hits_severe", maze["severe"].hits,                //
                   "twin_identical", maze_deterministic);

  // ---- E18 ----------------------------------------------------------------
  bench::header("E18 (§16) — replfs: commit latency and goodput under faults",
                "every acked write is durable on every replica through the "
                "whole ramp; commit latency degrades gracefully, goodput "
                "does not collapse");
  const std::size_t servers = quick ? 3 : 5;
  const int writes = quick ? 10 : 30;

  const std::vector<std::uint64_t> repl_seeds = bench::seed_set(0x18);
  std::printf("medians over seeds 0x18..0x%llx; committed and failed summed\n",
              static_cast<unsigned long long>(repl_seeds.back()));
  std::printf("%-10s %12s %12s %12s %10s %7s %8s\n", "level", "commit_p50",
              "commit_p95", "goodput", "committed", "failed", "durable");
  bench::row_sep();
  std::map<std::string, ReplfsResult> repl;  // per level: the medians
  std::string repl_severe_digest;            // the first seed's severe run
  bool all_durable = true;
  for (const auto& level : kLevels) {
    std::vector<double> p50, p95, goodput;
    ReplfsResult& m = repl[level.name];
    for (const std::uint64_t seed : repl_seeds) {
      const ReplfsResult r = run_replfs_level(level, servers, writes, seed);
      p50.push_back(r.commit_p50_ms);
      p95.push_back(r.commit_p95_ms);
      goodput.push_back(r.goodput_wps);
      m.committed += r.committed;
      m.failed += r.failed;
      m.acked_durable = m.acked_durable && r.acked_durable;
      if (&level == &kLevels[2] && seed == repl_seeds[0]) repl_severe_digest = r.digest;
    }
    m.commit_p50_ms = bench::median(p50);
    m.commit_p95_ms = bench::median(p95);
    m.goodput_wps = bench::median(goodput);
    all_durable = all_durable && m.acked_durable;
    std::printf("%-10s %9.2f ms %9.2f ms %8.2f w/s %10d %7d %8s\n", level.name,
                m.commit_p50_ms, m.commit_p95_ms, m.goodput_wps, m.committed, m.failed,
                m.acked_durable ? "yes" : "NO");
  }
  const ReplfsResult repl_twin = run_replfs_level(kLevels[2], servers, writes, repl_seeds[0]);
  const bool repl_deterministic = repl_twin.digest == repl_severe_digest;
  std::printf("severe twin run digest-identical: %s\n",
              repl_deterministic ? "yes" : "NO");

  bench::emit_json("apps_replfs",                                        //
                   "servers", static_cast<std::uint64_t>(servers),       //
                   "commit_p95_calm_ms", repl["calm"].commit_p95_ms,     //
                   "commit_p95_severe_ms", repl["severe"].commit_p95_ms, //
                   "goodput_calm_wps", repl["calm"].goodput_wps,         //
                   "goodput_severe_wps", repl["severe"].goodput_wps,     //
                   "acked_writes_durable", all_durable,                  //
                   "twin_identical", repl_deterministic);
  return 0;
}
