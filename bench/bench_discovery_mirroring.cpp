// E3 (§3.3): "To further increase scalability, mirroring approaches can be
// introduced." Directory mirroring under rising query load: more mirrors
// spread queries, cutting the per-directory load and keeping latency flat
// where a single directory saturates its serialized transmission queue.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/bytes.hpp"
#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"

using namespace ndsm;

namespace {

struct Outcome {
  double latency_ms = 0;
  std::uint64_t max_dir_load = 0;
  double answered_pct = 0;
  // The integers the row is computed from, folded into rows_digest.
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  Time latency_sum = 0;
};

Outcome run(std::size_t mirrors, double query_rate_hz) {
  // 40-node LAN: nodes 0..7 eligible directories, the rest clients.
  constexpr std::size_t kNodes = 40;
  // A slow shared medium makes the directory's serialized replies the
  // bottleneck under load.
  net::LinkSpec slow = net::ethernet100();
  slow.bandwidth_bps = 2e6;
  bench::Field field{kNodes, 5.0, 11, 0, routing::Metric::kHopCount, 0.0, slow};
  field.with_global_routers();

  std::vector<NodeId> directory_nodes;
  std::vector<std::unique_ptr<discovery::DirectoryServer>> servers;
  for (std::size_t i = 0; i < mirrors; ++i) {
    directory_nodes.push_back(field.nodes[i]);
    servers.push_back(std::make_unique<discovery::DirectoryServer>(field.transport(i)));
    // Each directory serves at most 100 queries/s (10 ms of CPU per query).
    servers.back()->set_processing_time(duration::millis(10));
  }
  servers[0]->set_mirrors(
      std::vector<NodeId>{directory_nodes.begin() + 1, directory_nodes.end()});

  std::vector<std::unique_ptr<discovery::CentralizedDiscovery>> clients;
  for (std::size_t i = mirrors; i < kNodes; ++i) {
    clients.push_back(std::make_unique<discovery::CentralizedDiscovery>(
        field.transport(i), directory_nodes, discovery::MirrorPolicy::kRoundRobin));
  }

  // 10 services registered through the primary, replicated to mirrors.
  qos::SupplierQos s;
  s.service_type = "svc";
  for (int i = 0; i < 10; ++i) {
    clients[static_cast<std::size_t>(i)]->register_service(s, duration::seconds(300));
  }
  field.sim.run_until(duration::seconds(2));

  qos::ConsumerQos want;
  want.service_type = "svc";
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  Time latency_sum = 0;
  const Time horizon = duration::seconds(30);
  const auto interval = static_cast<Time>(1e6 / query_rate_hz);
  for (Time t = duration::seconds(2); t < horizon; t += interval) {
    const std::size_t who = static_cast<std::size_t>(t / interval) % clients.size();
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
          4, duration::seconds(2));
    });
  }
  field.sim.run_until(horizon + duration::seconds(3));

  Outcome out;
  out.issued = issued;
  out.answered = answered;
  out.latency_sum = latency_sum;
  out.latency_ms =
      answered > 0 ? to_seconds(latency_sum) * 1000.0 / static_cast<double>(answered) : -1;
  for (const auto& server : servers) {
    out.max_dir_load = std::max(out.max_dir_load, server->stats().queries);
  }
  out.answered_pct =
      issued > 0 ? 100.0 * static_cast<double>(answered) / static_cast<double>(issued) : 0;
  return out;
}

}  // namespace

int main() {
  bench::header("E3 (§3.3) — directory mirroring under query load",
                "mirrors divide per-directory load; latency stays flat as load rises");
  std::printf("%-10s %-10s %14s %18s %12s\n", "mirrors", "rate Hz", "latency ms",
              "max queries/dir", "answered%");
  bench::row_sep();
  Outcome single_hot;
  Outcome mirrored_hot;
  // FNV-1a over every integer behind the printed rows, so a change in any
  // row (not only the summary fields) shows as a digest mismatch.
  std::uint64_t rows_digest = kFnvBasis;
  for (const std::size_t mirrors : {1u, 2u, 4u, 8u}) {
    for (const double rate : {20.0, 80.0, 200.0}) {
      const Outcome o = run(mirrors, rate);
      for (const std::uint64_t v : {std::uint64_t{mirrors}, static_cast<std::uint64_t>(rate),
                                    o.issued, o.answered,
                                    static_cast<std::uint64_t>(o.latency_sum),
                                    o.max_dir_load}) {
        rows_digest = fnv_mix(rows_digest, v);
      }
      std::printf("%-10zu %-10.0f %14.2f %18llu %12.1f\n", mirrors, rate, o.latency_ms,
                  static_cast<unsigned long long>(o.max_dir_load), o.answered_pct);
      if (rate == 200.0) {
        if (mirrors == 1) single_hot = o;
        if (mirrors == 8) mirrored_hot = o;
      }
    }
    bench::row_sep();
  }
  bench::emit_json("discovery_mirroring", "latency_ms_1mirror_200hz",
                   single_hot.latency_ms, "latency_ms_8mirrors_200hz",
                   mirrored_hot.latency_ms, "answered_pct_8mirrors_200hz",
                   mirrored_hot.answered_pct, "max_dir_load_8mirrors_200hz",
                   mirrored_hot.max_dir_load, "rows_digest", rows_digest);
  return 0;
}
