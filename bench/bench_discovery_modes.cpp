// E2 (§3.3): centralized vs distributed vs adaptive service discovery.
// "The choice of mechanism depends on the size of the network, the
// communication overhead that can be tolerated, and how frequently the
// available components change."
//
// Workload: a wireless grid of N nodes; 25% of nodes supply a service,
// consumers issue QoS queries at a fixed rate for 60 simulated seconds.
// Measured: bytes on the wire per answered query, mean query latency, and
// answer rate. Expected shape: distributed wins at small N (no directory
// round-trips), centralized wins as N grows (flooding cost ~ N), and the
// adaptive mode tracks the winner.

#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/bytes.hpp"
#include "discovery/adaptive.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "discovery/distributed.hpp"
#include "discovery/gossip.hpp"
#include "routing/flooding.hpp"

using namespace ndsm;

namespace {

struct Outcome {
  double bytes_per_query = 0;
  double latency_ms = 0;
  double answered_pct = 0;
  std::string mode_note;
  // The integers the row is computed from, folded into rows_digest.
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  Time latency_sum = 0;
};

qos::SupplierQos service() {
  qos::SupplierQos s;
  s.service_type = "sensor";
  s.reliability = 0.9;
  return s;
}

Outcome run(std::size_t n, const std::string& mode, double query_rate_hz) {
  bench::Field field{n, 20.0, /*seed=*/42, /*battery=*/0, routing::Metric::kHopCount};
  field.with_routers<routing::FloodingRouter>();

  // Node 0 hosts the directory in centralized/adaptive modes.
  std::unique_ptr<discovery::DirectoryServer> directory;
  if (mode != "distributed") {
    directory = std::make_unique<discovery::DirectoryServer>(field.transport(0));
  }

  std::vector<std::unique_ptr<discovery::ServiceDiscovery>> clients;
  for (std::size_t i = 0; i < n; ++i) {
    if (mode == "centralized") {
      clients.push_back(std::make_unique<discovery::CentralizedDiscovery>(
          field.transport(i), std::vector<NodeId>{field.nodes[0]}));
    } else if (mode == "distributed") {
      clients.push_back(
          std::make_unique<discovery::DistributedDiscovery>(field.transport(i)));
    } else if (mode == "gossip") {
      // Ring seeding; the epidemic closes the rest of the peer graph.
      clients.push_back(std::make_unique<discovery::GossipDiscovery>(
          field.transport(i), std::vector<NodeId>{field.nodes[(i + 1) % n]}));
    } else {
      discovery::AdaptiveConfig cfg;
      cfg.evaluation_period = duration::seconds(3);
      clients.push_back(std::make_unique<discovery::AdaptiveDiscovery>(
          field.transport(i), std::vector<NodeId>{field.nodes[0]}, cfg,
          [n] { return static_cast<double>(n); }));
    }
  }

  // Every 4th node supplies.
  for (std::size_t i = 0; i < n; i += 4) {
    clients[i]->register_service(service(), duration::seconds(120));
  }
  field.sim.run_until(duration::seconds(2));
  field.world.reset_stats();

  // Query workload: consumers spread over the grid, Poisson-ish via fixed
  // interleave. Collect latencies.
  std::uint64_t answered = 0;
  std::uint64_t issued = 0;
  Time latency_sum = 0;
  const Time horizon = duration::seconds(60);
  const auto interval = static_cast<Time>(1e6 / query_rate_hz);
  qos::ConsumerQos want;
  want.service_type = "sensor";
  for (Time t = duration::seconds(2); t < horizon; t += interval) {
    const std::size_t who = static_cast<std::size_t>((t / interval) * 7 + 1) % n;
    field.sim.schedule_at(t, [&, who, t] {
      issued++;
      clients[who]->query(
          want,
          [&, t](std::vector<discovery::ServiceRecord> records) {
            if (!records.empty()) {
              answered++;
              latency_sum += field.sim.now() - t;
            }
          },
          /*max_results=*/1, /*timeout=*/duration::seconds(2));
    });
  }
  field.sim.run_until(horizon + duration::seconds(3));

  Outcome out;
  out.bytes_on_wire = field.world.stats().bytes_on_wire;
  out.issued = issued;
  out.answered = answered;
  out.latency_sum = latency_sum;
  out.bytes_per_query = issued > 0
                            ? static_cast<double>(field.world.stats().bytes_on_wire) /
                                  static_cast<double>(issued)
                            : 0;
  out.latency_ms = answered > 0
                       ? to_seconds(latency_sum) * 1000.0 / static_cast<double>(answered)
                       : -1;
  out.answered_pct = issued > 0 ? 100.0 * static_cast<double>(answered) /
                                      static_cast<double>(issued)
                                : 0;
  if (mode == "adaptive") {
    const auto* adaptive =
        static_cast<const discovery::AdaptiveDiscovery*>(clients[1].get());
    out.mode_note = adaptive->mode() == discovery::DiscoveryMode::kCentralized
                        ? "-> centralized"
                        : "-> distributed";
  }
  return out;
}

}  // namespace

int main() {
  bench::header("E2 (§3.3) — discovery mode vs network size and traffic",
                "flooded queries ~N; directory ~path length; gossip answers locally; "
                "adaptive tracks the winner");
  std::printf("query rate 4 Hz, 60 s horizon, 25%% of nodes supply\n\n");
  std::printf("%-6s %-13s %16s %12s %10s %s\n", "N", "mode", "bytes/query", "latency ms",
              "answered%", "adaptive-choice");
  bench::row_sep();
  double min_answered_pct = 100.0;
  std::string adaptive_choice_n64;
  // FNV-1a over every integer behind the printed rows, so a change in any
  // row (not only the two summary fields) shows as a digest mismatch.
  std::uint64_t rows_digest = kFnvBasis;
  const std::vector<std::string> modes{"distributed", "centralized", "gossip", "adaptive"};
  for (const std::size_t n : {4u, 16u, 36u, 64u}) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const std::string& mode = modes[m];
      const Outcome o = run(n, mode, 4.0);
      for (const std::uint64_t v : {std::uint64_t{n}, std::uint64_t{m}, o.bytes_on_wire,
                                    o.issued, o.answered,
                                    static_cast<std::uint64_t>(o.latency_sum)}) {
        rows_digest = fnv_mix(rows_digest, v);
      }
      std::printf("%-6zu %-13s %16.0f %12.2f %10.1f %s\n", n, mode.c_str(),
                  o.bytes_per_query, o.latency_ms, o.answered_pct, o.mode_note.c_str());
      if (o.answered_pct < min_answered_pct) min_answered_pct = o.answered_pct;
      if (n == 64 && mode == "adaptive") adaptive_choice_n64 = o.mode_note;
    }
    bench::row_sep();
  }
  std::printf("\nchurn-dominated workload (registrations/s >> queries/s), N=36:\n");
  std::printf("(distributed registration is free; centralized pays per re-registration)\n");
  // Churn variant: high lease turnover, few queries.
  for (const std::string mode : {"distributed", "centralized"}) {
    bench::Field field{36, 20.0, 7, 0};
    field.with_routers<routing::FloodingRouter>();
    std::unique_ptr<discovery::DirectoryServer> dir;
    if (mode == "centralized") {
      dir = std::make_unique<discovery::DirectoryServer>(field.transport(0));
    }
    std::vector<std::unique_ptr<discovery::ServiceDiscovery>> clients;
    for (std::size_t i = 0; i < 36; ++i) {
      if (mode == "centralized") {
        clients.push_back(std::make_unique<discovery::CentralizedDiscovery>(
            field.transport(i), std::vector<NodeId>{field.nodes[0]}));
      } else {
        clients.push_back(
            std::make_unique<discovery::DistributedDiscovery>(field.transport(i)));
      }
    }
    field.world.reset_stats();
    // Each node re-registers every 2 s with a 3 s lease (high churn).
    for (Time t = 0; t < duration::seconds(60); t += duration::seconds(2)) {
      field.sim.schedule_at(t, [&] {
        for (std::size_t i = 1; i < 36; i += 2) {
          const ServiceId id =
              clients[i]->register_service(service(), duration::seconds(3));
          field.sim.schedule_after(duration::seconds(1),
                                   [&, i, id] { clients[i]->unregister_service(id); });
        }
      });
    }
    field.sim.run_until(duration::seconds(62));
    rows_digest = fnv_mix(rows_digest, field.world.stats().bytes_on_wire);
    std::printf("  %-13s total bytes on wire: %10llu%s\n", mode.c_str(),
                static_cast<unsigned long long>(field.world.stats().bytes_on_wire),
                mode == "distributed"
                    ? "  (reactive mode: registrations stay node-local)"
                    : "");
  }
  bench::emit_json("discovery_modes", "min_answered_pct", min_answered_pct,
                   "adaptive_choice_n64", adaptive_choice_n64, "rows_digest", rows_digest);
  return 0;
}
