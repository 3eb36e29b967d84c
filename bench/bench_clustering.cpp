// E12 (§4): role assignment. "MiLAN must then configure the network (...
// which nodes should play special roles in the network, such as Bluetooth
// masters)." LEACH-style cluster heads with data aggregation (the authors'
// own substrate work) vs every node reporting directly to the sink.
//
// Workload: a 49-node field, every member produces a 24 B reading each
// second. Direct: each reading is routed to the corner sink individually.
// Clustered: members send one hop to their rotating cluster head, which
// forwards one fixed-size aggregate per 2 s frame. Measured: time to first
// member death, members alive at the horizon, and bytes on the wire.
// Expected shape: aggregation collapses the wire volume by ~an order of
// magnitude and head rotation spreads the forwarding load, extending
// lifetime.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "milan/clustering.hpp"

using namespace ndsm;

namespace {

struct Outcome {
  double first_death_s = 0;
  std::size_t alive_at_end = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t sink_packets = 0;
};

Outcome run(bool clustered, std::uint64_t seed) {
  bench::Field field{49, 20.0, seed, /*battery_j=*/0.15, routing::Metric::kEnergyAware};
  // Cluster radios can reach their head anywhere on the field.
  field.world.set_medium_range(field.medium, 220.0);
  field.with_global_routers();
  const NodeId sink = field.nodes[0];
  field.world.set_battery(sink, net::Battery::mains());

  std::uint64_t sink_packets = 0;
  field.router_of(sink)->set_delivery_handler(routing::Proto::kApp,
                                              [&](NodeId, const Bytes&) { sink_packets++; });
  Outcome out;
  field.world.set_death_handler([&](NodeId) {
    field.table->invalidate();
    if (out.first_death_s == 0) out.first_death_s = to_seconds(field.sim.now());
  });

  std::vector<NodeId> members{field.nodes.begin() + 1, field.nodes.end()};
  milan::ClusterConfig cfg;
  cfg.cluster_count = 5;
  cfg.round_length = duration::seconds(20);
  milan::ClusterManager clusters{field.world, sink, members,
                                 [&](NodeId n) { return field.router_of(n); }, cfg};
  if (clustered) clusters.start();

  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  Rng rng{seed ^ 0xc1u};
  for (const NodeId member : members) {
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        field.sim, duration::seconds(1), [&, member] {
          if (!field.world.alive(member)) return;
          if (clustered) {
            clusters.submit_sample(member);
          } else {
            field.router_of(member)->send(sink, routing::Proto::kApp, Bytes(24, 0x5a));
          }
        }));
    timers.back()->start(duration::millis(rng.uniform_int(0, 999)));
  }

  field.sim.run_until(duration::minutes(15));
  if (out.first_death_s == 0) out.first_death_s = to_seconds(field.sim.now());
  for (const NodeId member : members) {
    if (field.world.alive(member)) out.alive_at_end++;
  }
  out.bytes_on_wire = field.world.stats().bytes_on_wire;
  out.sink_packets = sink_packets;
  return out;
}

}  // namespace

int main() {
  bench::header("E12 (§4) — cluster-head roles + aggregation vs direct reporting",
                "aggregation slashes wire bytes; head rotation spreads the expensive role");
  std::printf("49 nodes, 24 B reading/node/s, 0.15 J batteries, 15 min horizon\n\n");
  std::printf("%-14s %18s %18s %18s %14s\n", "organisation", "first death s",
              "alive @ 15 min", "bytes on wire", "sink packets");
  bench::row_sep();
  Outcome direct;
  Outcome clustered_out;
  for (const bool clustered : {false, true}) {
    const Outcome o = run(clustered, 42);
    std::printf("%-14s %18.1f %18zu %18llu %14llu\n",
                clustered ? "clustered" : "direct", o.first_death_s, o.alive_at_end,
                static_cast<unsigned long long>(o.bytes_on_wire),
                static_cast<unsigned long long>(o.sink_packets));
    (clustered ? clustered_out : direct) = o;
  }
  bench::row_sep();
  bench::emit_json("clustering", "direct_first_death_s", direct.first_death_s,
                   "clustered_first_death_s", clustered_out.first_death_s,
                   "wire_bytes_ratio",
                   clustered_out.bytes_on_wire > 0
                       ? static_cast<double>(direct.bytes_on_wire) /
                             static_cast<double>(clustered_out.bytes_on_wire)
                       : 0.0,
                   "clustered_alive_at_end",
                   static_cast<std::uint64_t>(clustered_out.alive_at_end));
  std::printf("note: clustered sink packets are aggregates (one per head per 2 s\n"
              "frame), each summarizing a frame's readings from its cluster.\n");
  return 0;
}
